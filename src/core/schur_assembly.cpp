#include "core/schur_assembly.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "check/fault.hpp"
#include "direct/mindeg.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "reorder/hypergraph_rhs.hpp"
#include "reorder/postorder_rhs.hpp"
#include "sparse/convert.hpp"
#include "sparse/permute.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/symmetrize.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace pdslin {

namespace {

// CSC of A with rows renumbered: new row index of old row r is new_of[r].
CscMatrix remap_rows_to_csc(const CsrMatrix& a,
                            const std::vector<index_t>& new_of) {
  CscMatrix out(a.rows, a.cols);
  // Count per column.
  for (index_t c : a.col_idx) ++out.col_ptr[c + 1];
  for (index_t j = 0; j < a.cols; ++j) out.col_ptr[j + 1] += out.col_ptr[j];
  out.row_idx.resize(a.col_idx.size());
  out.values.resize(a.values.size());
  std::vector<index_t> next(out.col_ptr.begin(), out.col_ptr.end() - 1);
  for (index_t i = 0; i < a.rows; ++i) {
    const index_t ni = new_of[i];
    for (index_t q = a.row_ptr[i]; q < a.row_ptr[i + 1]; ++q) {
      const index_t slot = next[a.col_idx[q]]++;
      out.row_idx[slot] = ni;
      out.values[slot] = a.values[q];
    }
  }
  out.sort_cols();
  return out;
}

// Column order for a multi-RHS solve per the configured strategy. `rhs` has
// rows already in factor order. The Hypergraph strategy needs the per-column
// solve patterns to build its row-net model; they are handed back through
// `patterns_out` so the blocked solve can reuse them instead of re-running
// every reach (left empty by the other strategies).
std::vector<index_t> choose_rhs_order(
    const CscMatrix& l, const CscMatrix& rhs, const SchurAssemblyOptions& opt,
    double& reorder_seconds, std::vector<std::vector<index_t>>& patterns_out) {
  WallTimer t;
  patterns_out.clear();
  std::vector<index_t> order(rhs.cols);
  std::iota(order.begin(), order.end(), 0);
  switch (opt.rhs_ordering) {
    case RhsOrdering::Natural:
      break;
    case RhsOrdering::Postorder: {
      // Rows are already postordered along with D when this mode is active;
      // sorting by first nonzero under the identity row order is the §IV-A
      // column step.
      std::vector<index_t> identity(rhs.rows);
      std::iota(identity.begin(), identity.end(), 0);
      order = sort_columns_by_first_nonzero(rhs, identity);
      break;
    }
    case RhsOrdering::Hypergraph: {
      patterns_out = symbolic_solve_patterns(l, rhs);
      HypergraphRhsOptions hopt;
      hopt.block_size = opt.rhs_block_size;
      order = hypergraph_rhs_ordering(patterns_out, rhs.rows, hopt).col_order;
      break;
    }
  }
  reorder_seconds += t.seconds();
  return order;
}

// Undo the column ordering of a blocked solve: out(:, order[j]) = in(:, j).
CscMatrix unpermute_columns(const CscMatrix& in,
                            const std::vector<index_t>& order) {
  CscMatrix out(in.rows, in.cols);
  // Column lengths.
  for (index_t j = 0; j < in.cols; ++j) {
    out.col_ptr[order[j] + 1] = in.col_nnz(j);
  }
  for (index_t j = 0; j < in.cols; ++j) out.col_ptr[j + 1] += out.col_ptr[j];
  out.row_idx.resize(in.row_idx.size());
  out.values.resize(in.values.size());
  for (index_t j = 0; j < in.cols; ++j) {
    index_t dst = out.col_ptr[order[j]];
    for (index_t q = in.col_ptr[j]; q < in.col_ptr[j + 1]; ++q) {
      out.row_idx[dst] = in.row_idx[q];
      out.values[dst] = in.values[q];
      ++dst;
    }
  }
  return out;
}

}  // namespace

CscMatrix drop_small_columns(const CscMatrix& a, double rel_tol,
                             unsigned threads) {
  // Two-pass so the sweep parallelizes over columns: count survivors per
  // column, prefix-sum, then fill disjoint slices. Keep/drop is decided per
  // entry, so the output matches the serial single-pass result exactly.
  CscMatrix out(a.rows, a.cols);
  ThreadPool& pool = ThreadPool::shared();
  std::vector<value_t> cut(a.cols, 0.0);
  std::vector<index_t> keep(a.cols, 0);
  parallel_ranges(pool, a.cols, threads,
                  [&](unsigned, long long begin, long long end) {
                    for (auto j = static_cast<index_t>(begin); j < end; ++j) {
                      value_t cmax = 0.0;
                      for (index_t q = a.col_ptr[j]; q < a.col_ptr[j + 1]; ++q) {
                        cmax = std::max(cmax, std::abs(a.values[q]));
                      }
                      cut[j] = rel_tol * cmax;
                      index_t k = 0;
                      for (index_t q = a.col_ptr[j]; q < a.col_ptr[j + 1]; ++q) {
                        if (std::abs(a.values[q]) >= cut[j] && a.values[q] != 0.0) ++k;
                      }
                      keep[j] = k;
                    }
                  });
  for (index_t j = 0; j < a.cols; ++j) out.col_ptr[j + 1] = out.col_ptr[j] + keep[j];
  out.row_idx.resize(out.col_ptr[a.cols]);
  out.values.resize(out.col_ptr[a.cols]);
  parallel_ranges(pool, a.cols, threads,
                  [&](unsigned, long long begin, long long end) {
                    for (auto j = static_cast<index_t>(begin); j < end; ++j) {
                      index_t dst = out.col_ptr[j];
                      for (index_t q = a.col_ptr[j]; q < a.col_ptr[j + 1]; ++q) {
                        if (std::abs(a.values[q]) >= cut[j] && a.values[q] != 0.0) {
                          out.row_idx[dst] = a.row_idx[q];
                          out.values[dst] = a.values[q];
                          ++dst;
                        }
                      }
                    }
                  });
  return out;
}

SubdomainFactorization assemble_subdomain(const Subdomain& sub,
                                          const SchurAssemblyOptions& opt) {
  SubdomainFactorization f;
  const index_t nd = sub.d.rows;
  WallTimer timer;

  // --- Fill-reducing ordering (minimum degree), optionally composed with
  // the e-tree postorder when the §IV-A RHS strategy is active. ---
  timer.reset();
  CsrMatrix d_ord;
  {
    PDSLIN_SPAN("lu_d.order");
    const CsrMatrix dsym = symmetrize_abs(pattern_of(sub.d));
    f.colmap = minimum_degree_ordering(dsym);
    d_ord = permute_symmetric(sub.d, f.colmap);
    if (opt.rhs_ordering == RhsOrdering::Postorder) {
      const std::vector<index_t> post = etree_postorder_permutation(d_ord);
      // Compose: colmap[new] = old goes through the postorder.
      std::vector<index_t> composed(nd);
      for (index_t i = 0; i < nd; ++i) composed[i] = f.colmap[post[i]];
      f.colmap = std::move(composed);
      d_ord = permute_symmetric(sub.d, f.colmap);
    }
  }
  f.order_seconds = timer.seconds();

  // --- LU factorization of the (re)ordered subdomain. ---
  timer.reset();
  {
    PDSLIN_SPAN("lu_d.factor");
    // The panel kernel's pipeline inherits this subdomain's worker budget
    // (the inner level of the paper's np = k × (np/k) layout) unless the
    // caller dialed LuOptions::threads explicitly. Bitwise identical for
    // any thread count, so this never perturbs results.
    LuOptions lopt = opt.lu;
    if (lopt.threads <= 1) lopt.threads = std::max(1u, opt.inner_threads);
    f.lu = lu_factorize(d_ord, lopt);
  }
  f.factor_seconds = timer.seconds();
  f.lu_nnz = f.lu.fill_nnz();

  // Combined row map: pivot row k of the factors reads old local row
  // colmap[lu.row_perm[k]].
  f.rowmap.resize(nd);
  for (index_t k = 0; k < nd; ++k) f.rowmap[k] = f.colmap[f.lu.row_perm[k]];
  std::vector<index_t> row_new_of(nd);
  for (index_t k = 0; k < nd; ++k) row_new_of[f.rowmap[k]] = k;

  // --- G = L⁻¹ (P Ê): blocked multi-RHS forward solve. ---
  MultiRhsOptions mr;
  mr.block_size = opt.rhs_block_size;
  mr.threads = opt.inner_threads;
  f.nnz_ehat = sub.ehat.nnz();
  const CscMatrix ehat_perm = remap_rows_to_csc(sub.ehat, row_new_of);
  std::vector<std::vector<index_t>> g_patterns;
  std::vector<index_t> g_order = choose_rhs_order(f.lu.lower, ehat_perm, opt,
                                                  f.reorder_seconds, g_patterns);
  timer.reset();
  mr.col_patterns = g_patterns.empty() ? nullptr : &g_patterns;
  MultiRhsResult g_res = [&] {
    PDSLIN_SPAN("comp_s.solve_g");
    return solve_multi_rhs_blocked(f.lu.lower, ehat_perm, g_order, mr);
  }();
  f.solve_g_seconds = timer.seconds();
  f.g_stats = g_res.stats;
  CscMatrix g = unpermute_columns(g_res.solution, g_order);
  g = drop_small_columns(g, opt.drop_wg, opt.inner_threads);

  // --- Wᵀ = U⁻ᵀ (F̂ P̄)ᵀ: same machinery on the transposed factor. ---
  // F̂ columns move to factor column order: new col index of old local c is
  // inv(colmap)[c].
  std::vector<index_t> col_new_of(nd);
  for (index_t i = 0; i < nd; ++i) col_new_of[f.colmap[i]] = i;
  // CSC of F̂'ᵀ: column r = row r of F̂ with remapped indices. That is, a
  // CSR matrix whose rows are F̂'s rows = the same arrays reinterpreted.
  CscMatrix fhat_t(nd, sub.fhat.rows);
  fhat_t.col_ptr = sub.fhat.row_ptr;
  fhat_t.row_idx.reserve(sub.fhat.col_idx.size());
  for (index_t c : sub.fhat.col_idx) fhat_t.row_idx.push_back(col_new_of[c]);
  fhat_t.values = sub.fhat.values;
  fhat_t.sort_cols();

  const CscMatrix ut = transpose(f.lu.upper);
  std::vector<std::vector<index_t>> w_patterns;
  std::vector<index_t> w_order =
      choose_rhs_order(ut, fhat_t, opt, f.reorder_seconds, w_patterns);
  timer.reset();
  mr.col_patterns = w_patterns.empty() ? nullptr : &w_patterns;
  MultiRhsResult w_res = [&] {
    PDSLIN_SPAN("comp_s.solve_w");
    return solve_multi_rhs_blocked(ut, fhat_t, w_order, mr);
  }();
  f.solve_w_seconds = timer.seconds();
  f.w_stats = w_res.stats;
  CscMatrix wt = unpermute_columns(w_res.solution, w_order);
  wt = drop_small_columns(wt, opt.drop_wg, opt.inner_threads);

  // Table III statistics of G̃.
  {
    std::vector<char> row_seen(nd, 0);
    for (index_t j = 0; j < g.cols; ++j) {
      if (g.col_nnz(j) > 0) ++f.g_nnzcol;
    }
    for (index_t r : g.row_idx) row_seen[r] = 1;
    f.g_nnzrow = std::count(row_seen.begin(), row_seen.end(), 1);
  }

  // --- T̃ = W̃ G̃. W (m_f × nd) in CSR is exactly Wᵀ's CSC arrays. ---
  timer.reset();
  CsrMatrix w_csr;
  w_csr.rows = wt.cols;
  w_csr.cols = wt.rows;
  w_csr.row_ptr = wt.col_ptr;
  w_csr.col_idx = wt.row_idx;
  w_csr.values = wt.values;
  const CsrMatrix g_csr = csc_to_csr(g);
  {
    PDSLIN_SPAN("comp_s.gemm");
    f.t_tilde = spgemm(w_csr, g_csr, opt.inner_threads);
  }
  f.gemm_seconds = timer.seconds();
  return f;
}

CsrMatrix assemble_schur(const CsrMatrix& c_block,
                         const std::vector<Subdomain>& subs,
                         const std::vector<SubdomainFactorization>& facts,
                         double drop_s, unsigned threads) {
  PDSLIN_CHECK(subs.size() == facts.size());
  const index_t ns = c_block.rows;
  CooMatrix acc(ns, ns);
  acc.reserve(c_block.nnz());
  for (index_t i = 0; i < c_block.rows; ++i) {
    for (index_t q = c_block.row_ptr[i]; q < c_block.row_ptr[i + 1]; ++q) {
      acc.add(i, c_block.col_idx[q], c_block.values[q]);
    }
  }
  // Test hook (check/fault.hpp): an armed SchurGatherOffByOne shifts the
  // R_F row map down by one — the planted defect the differential fuzz
  // harness must catch and minimize.
  const bool gather_fault =
      check::injected_fault() == check::Fault::SchurGatherOffByOne;
  for (std::size_t l = 0; l < subs.size(); ++l) {
    const CsrMatrix& t = facts[l].t_tilde;
    const auto& rows = subs[l].f_rows;
    const auto& cols = subs[l].e_cols;
    for (index_t r = 0; r < t.rows; ++r) {
      index_t ri = rows[r];
      if (gather_fault && ri > 0) --ri;
      for (index_t q = t.row_ptr[r]; q < t.row_ptr[r + 1]; ++q) {
        acc.add(ri, cols[t.col_idx[q]], -t.values[q]);
      }
    }
  }
  CsrMatrix s_hat = coo_to_csr(acc);

  // Relative drop against the largest magnitude in each row; keep diagonal.
  // Row-parallel two-pass (count → prefix-sum → fill), same entries as the
  // serial single-pass sweep.
  CsrMatrix s_tilde(ns, ns);
  ThreadPool& pool = ThreadPool::shared();
  std::vector<value_t> cut(ns, 0.0);
  std::vector<index_t> keep(ns, 0);
  parallel_ranges(pool, ns, threads,
                  [&](unsigned, long long begin, long long end) {
                    for (auto i = static_cast<index_t>(begin); i < end; ++i) {
                      value_t rmax = 0.0;
                      for (index_t q = s_hat.row_ptr[i]; q < s_hat.row_ptr[i + 1]; ++q) {
                        rmax = std::max(rmax, std::abs(s_hat.values[q]));
                      }
                      cut[i] = drop_s * rmax;
                      index_t k = 0;
                      for (index_t q = s_hat.row_ptr[i]; q < s_hat.row_ptr[i + 1]; ++q) {
                        if (s_hat.col_idx[q] == i || std::abs(s_hat.values[q]) >= cut[i]) ++k;
                      }
                      // Test hook (check/fault.hpp): silently lose the last
                      // kept entry of every multi-entry row.
                      if (k > 1 && check::injected_fault() ==
                                       check::Fault::SchurDropLastEntry) {
                        --k;
                      }
                      keep[i] = k;
                    }
                  });
  for (index_t i = 0; i < ns; ++i) s_tilde.row_ptr[i + 1] = s_tilde.row_ptr[i] + keep[i];
  s_tilde.col_idx.resize(s_tilde.row_ptr[ns]);
  s_tilde.values.resize(s_tilde.row_ptr[ns]);
  parallel_ranges(pool, ns, threads,
                  [&](unsigned, long long begin, long long end) {
                    for (auto i = static_cast<index_t>(begin); i < end; ++i) {
                      index_t dst = s_tilde.row_ptr[i];
                      for (index_t q = s_hat.row_ptr[i]; q < s_hat.row_ptr[i + 1]; ++q) {
                        const index_t j = s_hat.col_idx[q];
                        if (dst >= s_tilde.row_ptr[i + 1]) break;
                        if (j == i || std::abs(s_hat.values[q]) >= cut[i]) {
                          s_tilde.col_idx[dst] = j;
                          s_tilde.values[dst] = s_hat.values[q];
                          ++dst;
                        }
                      }
                    }
                  });
  return s_tilde;
}

}  // namespace pdslin
