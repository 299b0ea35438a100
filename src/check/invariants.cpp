#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <sstream>

#include "direct/trisolve.hpp"
#include "hypergraph/metrics.hpp"
#include "sparse/convert.hpp"
#include "sparse/permute.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pdslin::check {

void CheckReport::add(std::string checker, std::string detail,
                      double magnitude) {
  violations.push_back({std::move(checker), std::move(detail), magnitude});
}

bool CheckReport::has(std::string_view prefix) const {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) {
                       return v.checker.compare(0, prefix.size(), prefix) == 0;
                     });
}

std::string CheckReport::summary() const {
  std::ostringstream os;
  const std::size_t cap = 10;
  for (std::size_t i = 0; i < violations.size() && i < cap; ++i) {
    const Violation& v = violations[i];
    if (i > 0) os << '\n';
    os << v.checker << ": " << v.detail;
    if (v.magnitude != 0.0) os << " (magnitude " << v.magnitude << ")";
  }
  if (violations.size() > cap) {
    os << "\n… and " << violations.size() - cap << " more";
  }
  return os.str();
}

// ---------------------------------------------------------------------------

void check_partition(const CsrMatrix& a, const DbbdPartition& p,
                     CheckReport& rep) {
  const index_t n = p.n;
  const index_t k = p.num_parts;
  if (a.rows != n || a.cols != n) {
    rep.add("partition.shape", "partition n does not match the matrix",
            std::abs(static_cast<double>(a.rows - n)));
    return;
  }
  if (static_cast<index_t>(p.part.size()) != n ||
      static_cast<index_t>(p.perm.size()) != n ||
      static_cast<index_t>(p.iperm.size()) != n ||
      static_cast<index_t>(p.domain_offset.size()) != k + 1) {
    rep.add("partition.sizes", "part/perm/iperm/domain_offset size mismatch");
    return;
  }

  // Labels in range; count per part.
  std::vector<index_t> count(k, 0);
  index_t sep_count = 0;
  for (index_t v = 0; v < n; ++v) {
    const index_t l = p.part[v];
    if (l == DissectionResult::kSeparator) {
      ++sep_count;
    } else if (l < 0 || l >= k) {
      rep.add("partition.label",
              "unknown " + std::to_string(v) + " has out-of-range part " +
                  std::to_string(l));
      return;
    } else {
      ++count[l];
    }
  }

  // Offsets monotone + consistent with the label counts (cover/disjointness).
  if (p.domain_offset[0] != 0) {
    rep.add("partition.offsets", "domain_offset[0] != 0");
  }
  for (index_t l = 0; l < k; ++l) {
    if (p.domain_size(l) < 0) {
      rep.add("partition.offsets",
              "domain_offset not monotone at part " + std::to_string(l));
      return;
    }
    if (p.domain_size(l) != count[l]) {
      rep.add("partition.cover",
              "part " + std::to_string(l) + " block size " +
                  std::to_string(p.domain_size(l)) + " != label count " +
                  std::to_string(count[l]),
              std::abs(static_cast<double>(p.domain_size(l) - count[l])));
    }
  }
  if (p.separator_size() != sep_count) {
    rep.add("partition.cover",
            "separator block size " + std::to_string(p.separator_size()) +
                " != separator label count " + std::to_string(sep_count));
  }

  // perm is a bijection, iperm its inverse, blocks hold the right labels.
  std::vector<char> seen(n, 0);
  for (index_t i = 0; i < n; ++i) {
    const index_t v = p.perm[i];
    if (v < 0 || v >= n || seen[v]) {
      rep.add("partition.perm",
              "perm is not a permutation at position " + std::to_string(i));
      return;
    }
    seen[v] = 1;
    if (p.iperm[v] != i) {
      rep.add("partition.perm", "iperm is not the inverse of perm at " +
                                    std::to_string(i));
      return;
    }
  }
  for (index_t l = 0; l < k; ++l) {
    for (index_t i = p.domain_offset[l]; i < p.domain_offset[l + 1]; ++i) {
      if (p.part[p.perm[i]] != l) {
        rep.add("partition.block_order",
                "position " + std::to_string(i) + " in block " +
                    std::to_string(l) + " holds an unknown of part " +
                    std::to_string(p.part[p.perm[i]]));
        return;
      }
    }
  }
  for (index_t i = p.domain_offset[k]; i < n; ++i) {
    if (p.part[p.perm[i]] != DissectionResult::kSeparator) {
      rep.add("partition.block_order",
              "separator position " + std::to_string(i) +
                  " holds a subdomain unknown");
      return;
    }
  }

  // Separator correctness: the DBBD zero blocks. Any A(i, j) with i, j in
  // two different subdomain interiors breaks Eq. (1).
  long long cross = 0;
  for (index_t i = 0; i < n; ++i) {
    const index_t li = p.part[i];
    if (li == DissectionResult::kSeparator) continue;
    for (index_t q = a.row_ptr[i]; q < a.row_ptr[i + 1]; ++q) {
      const index_t lj = p.part[a.col_idx[q]];
      if (lj != DissectionResult::kSeparator && lj != li) {
        if (cross == 0) {
          rep.add("partition.cross_coupling",
                  "A(" + std::to_string(i) + "," +
                      std::to_string(a.col_idx[q]) + ") couples subdomains " +
                      std::to_string(li) + " and " + std::to_string(lj));
        }
        ++cross;
      }
    }
  }
  if (cross > 0) {
    rep.violations.back().magnitude = static_cast<double>(cross);
  }
}

void check_bisection_state(const Hypergraph& h, const HgBisection& b,
                           CheckReport& rep) {
  if (b.side.size() != static_cast<std::size_t>(h.num_vertices)) {
    rep.add("bisection.sizes", "side array does not cover the vertices");
    return;
  }
  HgBisection scratch;
  scratch.side = b.side;
  scratch.rebuild(h);

  if (scratch.cut_cost != b.cut_cost) {
    rep.add("bisection.cut",
            "incremental cut " + std::to_string(b.cut_cost) +
                " != from-scratch " + std::to_string(scratch.cut_cost),
            std::abs(static_cast<double>(scratch.cut_cost - b.cut_cost)));
  }
  const long long oracle_cut = cut_cost_of(h, b.side);
  if (oracle_cut != b.cut_cost) {
    rep.add("bisection.cut_oracle",
            "incremental cut " + std::to_string(b.cut_cost) +
                " != oracle " + std::to_string(oracle_cut),
            std::abs(static_cast<double>(oracle_cut - b.cut_cost)));
  }
  for (int s = 0; s < 2; ++s) {
    for (index_t net = 0; net < h.num_nets; ++net) {
      if (scratch.pin_count[s][net] != b.pin_count[s][net]) {
        rep.add("bisection.pin_count",
                "net " + std::to_string(net) + " side " + std::to_string(s) +
                    ": incremental " + std::to_string(b.pin_count[s][net]) +
                    " != scratch " + std::to_string(scratch.pin_count[s][net]));
        return;  // one detailed example is enough
      }
    }
    for (int c = 0; c < h.num_constraints; ++c) {
      if (scratch.weight[s][c] != b.weight[s][c]) {
        rep.add("bisection.weight",
                "constraint " + std::to_string(c) + " side " +
                    std::to_string(s) + ": incremental " +
                    std::to_string(b.weight[s][c]) + " != scratch " +
                    std::to_string(scratch.weight[s][c]));
      }
    }
  }
}

void check_lu_residual(const CscMatrix& a, const LuFactors& f, double rel_tol,
                       CheckReport& rep) {
  if (f.n != a.rows || f.n != a.cols) {
    rep.add("lu.shape", "factor dimension does not match the matrix");
    return;
  }
  const DenseMatrix l = dense_from_csc(f.lower);
  const DenseMatrix ut = dense_from_csc(f.upper_t);  // Uᵀ
  const DenseMatrix ad = dense_from_csc(a);
  const index_t n = f.n;
  double scale = std::max(1.0, max_abs(ad));
  double worst = 0.0;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      value_t lu = 0.0;
      for (index_t kk = 0; kk <= std::min(i, j); ++kk) {
        lu += l.at(i, kk) * ut.at(j, kk);
      }
      worst = std::max(worst, std::abs(lu - ad.at(f.row_perm[i], j)));
    }
  }
  if (worst > rel_tol * scale) {
    rep.add("lu.residual",
            "‖LU − PA‖_max = " + std::to_string(worst) + " exceeds " +
                std::to_string(rel_tol * scale),
            worst / scale);
  }
}

namespace {

bool same_bits(std::span<const value_t> x, std::span<const value_t> y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
}

/// The first column at which x and y differ in pattern or in a value's
/// bits; -1 when they are identical.
index_t first_difference(const CscMatrix& x, const CscMatrix& y) {
  if (x.rows != y.rows || x.cols != y.cols) return 0;
  for (index_t j = 0; j < x.cols; ++j) {
    const auto xr = x.col_rows(j), yr = y.col_rows(j);
    if (!std::equal(xr.begin(), xr.end(), yr.begin(), yr.end()) ||
        !same_bits(x.col_vals(j), y.col_vals(j))) {
      return j;
    }
  }
  return -1;
}

/// The CSC factors a BlockLuFactors was made from: the head as stored, then
/// the block's columns of L (unit diagonal first) and rows of U (diagonal
/// first), nonzeros only. with_dense_block admits no stored 0.0 into the
/// block, so its zeros are exactly the absent entries.
LuFactors csc_factors(const BlockLuFactors& b) {
  const index_t n = b.n, s = b.start, nb = n - s;
  const auto at = [&](index_t r, index_t c) {
    return b.block[static_cast<std::size_t>(c - s) * nb + (r - s)];
  };
  const auto extend = [&](const CscMatrix& head, bool lower) {
    CscMatrix m(n, n);
    std::copy(head.col_ptr.begin(), head.col_ptr.end(), m.col_ptr.begin());
    m.row_idx = head.row_idx;
    m.values = head.values;
    for (index_t j = s; j < n; ++j) {
      if (lower) {
        m.row_idx.push_back(j);
        m.values.push_back(1.0);
      }
      for (index_t i = lower ? j + 1 : j; i < n; ++i) {
        const value_t v = lower ? at(i, j) : at(j, i);
        if (v != 0.0) {
          m.row_idx.push_back(i);
          m.values.push_back(v);
        }
      }
      m.col_ptr[j + 1] = static_cast<index_t>(m.row_idx.size());
    }
    return m;
  };
  LuFactors f;
  f.n = n;
  f.lower = extend(b.lower_head, true);
  f.upper_t = extend(b.upper_t_head, false);
  f.row_perm = b.row_perm;
  return f;
}

}  // namespace

std::optional<LuFactors> check_factors_match_scalar(const CscMatrix& a,
                                                    const LuOptions& opt,
                                                    const LuFactors& f,
                                                    const std::string& id,
                                                    CheckReport& rep) {
  std::optional<LuFactors> ref;
  try {
    ref = scalar_lu_factorize(a, opt);
  } catch (const Error& e) {
    rep.add("lu_kernel.scalar_threw",
            id + ": the scalar kernel threw where the solver factored: " +
                e.what());
    return std::nullopt;
  }
  if (f.row_perm != ref->row_perm) {
    rep.add("lu_kernel.factors",
            id + ": row_perm differs from the scalar kernel's");
  }
  const std::pair<const char*, index_t> parts[] = {
      {"lower", first_difference(f.lower, ref->lower)},
      {"upper_t", first_difference(f.upper_t, ref->upper_t)}};
  for (const auto& [name, col] : parts) {
    if (col >= 0) {
      rep.add("lu_kernel.factors",
              id + ": " + name + " differs from the scalar kernel's at column " +
                  std::to_string(col));
    }
  }
  return ref;
}

void check_factor_kernels(const SchurSolver& solver, CheckReport& rep) {
  const LuOptions& opt = solver.options().assembly.lu;
  const auto& subs = solver.subdomains();
  const auto& facts = solver.factorizations();
  for (std::size_t l = 0; l < subs.size() && l < facts.size(); ++l) {
    const SubdomainFactorization& f = facts[l];
    // A malformed colmap is check_subdomain_factors' finding.
    if (static_cast<index_t>(f.colmap.size()) != subs[l].d.rows) continue;
    check_factors_match_scalar(
        csr_to_csc(permute_symmetric(subs[l].d, f.colmap)), opt, f.lu,
        "subdomain " + std::to_string(l), rep);
  }

  const SchurPreconditioner* pre = solver.preconditioner();
  if (pre == nullptr) return;  // no separator, so no LU(S̃)
  const std::vector<index_t>& colmap = pre->colmap();
  const std::optional<LuFactors> ref = check_factors_match_scalar(
      csr_to_csc(permute_symmetric(solver.schur_tilde(), colmap)), opt,
      csc_factors(pre->factors()), "LU(S~)", rep);
  if (!ref) return;

  // One apply: permute into factor space, the CSC sweeps, permute back.
  const index_t n = ref->n;
  Rng rng(0x5c4e7u);
  std::vector<value_t> x(n), want(n), got(n), w(n);
  for (value_t& v : x) v = rng.uniform(-1.0, 1.0);
  for (index_t k = 0; k < n; ++k) w[k] = x[colmap[ref->row_perm[k]]];
  lower_solve_dense(ref->lower, w, /*unit_diag=*/true);
  upper_solve_dense(ref->upper_t, w);
  for (index_t j = 0; j < n; ++j) want[colmap[j]] = w[j];
  pre->apply_with_scratch(x, got, w);
  if (!same_bits(got, want)) {
    rep.add("lu_kernel.apply",
            "LU(S~): the preconditioner's apply differs bitwise from the CSC "
            "sweeps of the scalar factors");
  }
}

void check_subdomain_factors(const SchurSolver& solver, double rel_tol,
                             CheckReport& rep) {
  const DbbdPartition& p = solver.partition();
  const index_t ns = p.separator_size();
  const auto& subs = solver.subdomains();
  const auto& facts = solver.factorizations();
  if (subs.size() != facts.size()) {
    rep.add("subdomain.sizes", "subdomain/factorization count mismatch");
    return;
  }
  for (std::size_t l = 0; l < subs.size(); ++l) {
    const Subdomain& sub = subs[l];
    const SubdomainFactorization& f = facts[l];
    const std::string id = "subdomain " + std::to_string(l);

    // Interface bookkeeping: packed maps in range, shapes consistent.
    if (sub.ehat.rows != sub.d.rows ||
        sub.ehat.cols != static_cast<index_t>(sub.e_cols.size()) ||
        sub.fhat.cols != sub.d.rows ||
        sub.fhat.rows != static_cast<index_t>(sub.f_rows.size())) {
      rep.add("subdomain.interface_shape",
              id + ": Ê/F̂ shapes disagree with the packed index lists");
      continue;
    }
    for (const index_t c : sub.e_cols) {
      if (c < 0 || c >= ns) {
        rep.add("subdomain.interface_range",
                id + ": e_cols entry " + std::to_string(c) +
                    " outside the separator");
        break;
      }
    }
    for (const index_t r : sub.f_rows) {
      if (r < 0 || r >= ns) {
        rep.add("subdomain.interface_range",
                id + ": f_rows entry " + std::to_string(r) +
                    " outside the separator");
        break;
      }
    }

    // Factor residual through the stored orderings: LU(k, j) must equal
    // D(rowmap[k], colmap[j]) — the identity domain_solve relies on.
    const index_t nd = f.lu.n;
    if (nd != sub.d.rows ||
        static_cast<index_t>(f.colmap.size()) != nd ||
        static_cast<index_t>(f.rowmap.size()) != nd) {
      rep.add("subdomain.factor_shape",
              id + ": LU/colmap/rowmap dimensions disagree with D");
      continue;
    }
    if (nd == 0) continue;
    const DenseMatrix l_d = dense_from_csc(f.lu.lower);
    const DenseMatrix ut_d = dense_from_csc(f.lu.upper_t);  // Uᵀ
    const DenseMatrix d_d = dense_from_csr(sub.d);
    const double scale = std::max(1.0, max_abs(d_d));
    double worst = 0.0;
    for (index_t i = 0; i < nd; ++i) {
      for (index_t j = 0; j < nd; ++j) {
        value_t lu = 0.0;
        for (index_t kk = 0; kk <= std::min(i, j); ++kk) {
          lu += l_d.at(i, kk) * ut_d.at(j, kk);
        }
        worst = std::max(worst,
                         std::abs(lu - d_d.at(f.rowmap[i], f.colmap[j])));
      }
    }
    if (worst > rel_tol * scale) {
      rep.add("subdomain.lu_residual",
              id + ": ‖LU − P D̂‖_max = " + std::to_string(worst) +
                  " exceeds " + std::to_string(rel_tol * scale),
              worst / scale);
    }
  }
}

void check_schur_consistency(const SchurSolver& solver,
                             const SchurCheckOptions& opt, CheckReport& rep) {
  const DbbdPartition& p = solver.partition();
  if (p.separator_size() == 0) return;  // no Schur system at all
  DenseMatrix oracle;
  if (!dense_schur(solver.matrix(), p, oracle)) {
    return;  // singular interior block — the pipeline's LU judges that case
  }
  const DenseMatrix s_tilde = dense_from_csr(solver.schur_tilde());
  const double diff = max_abs_diff(oracle, s_tilde);
  // Achievable assembly accuracy is relative to the INTERMEDIATE magnitudes
  // (S = C − Σ T̃_ℓ cancels catastrophically when a D_ℓ is near-singular and
  // ‖T̃_ℓ‖ ≫ ‖S‖), and the drop thresholds cut relative to Ŝ rows, not S.
  // max|T̃_ℓ| is recorded at assembly: factor() frees T̃_ℓ after the gather.
  double scale = std::max(1.0, max_abs(oracle));
  for (const SubdomainFactorization& f : solver.factorizations()) {
    scale = std::max(scale, f.t_tilde_max_abs);
  }
  if (diff > opt.rel_tol * scale) {
    rep.add("schur.mismatch",
            "‖S̃ − S_oracle‖_max = " + std::to_string(diff) +
                " exceeds " + std::to_string(opt.rel_tol * scale),
            diff / scale);
  }
}

void check_solver(const SchurSolver& solver, const SchurCheckOptions& schur,
                  CheckReport& rep) {
  check_partition(solver.matrix(), solver.partition(), rep);
  check_subdomain_factors(solver, schur.factor_rel_tol, rep);
  check_factor_kernels(solver, rep);
  check_schur_consistency(solver, schur, rep);
}

void check_solution(const CsrMatrix& a, std::span<const value_t> x,
                    std::span<const value_t> b,
                    const std::vector<GmresResult>& results, index_t nrhs,
                    const SolutionCheckOptions& opt, CheckReport& rep) {
  const auto n = static_cast<std::size_t>(a.rows);
  if (x.size() != n * static_cast<std::size_t>(nrhs) ||
      b.size() != n * static_cast<std::size_t>(nrhs) ||
      results.size() != static_cast<std::size_t>(nrhs)) {
    rep.add("solution.sizes", "x/b/results sizes disagree with nrhs");
    return;
  }
  for (const value_t v : x) {
    if (!std::isfinite(v)) {
      rep.add("solution.nonfinite", "solution contains NaN/Inf");
      return;
    }
  }
  const std::vector<double> true_rel = true_relative_residuals(a, x, b, nrhs);
  for (index_t c = 0; c < nrhs; ++c) {
    const GmresResult& r = results[c];
    if (!std::isfinite(r.relative_residual)) {
      rep.add("solution.reported_nonfinite",
              "column " + std::to_string(c) + " reported a non-finite residual");
      continue;
    }
    if (!r.converged) continue;
    const double allowed =
        std::max(opt.consistency_factor * r.relative_residual, opt.floor);
    if (true_rel[c] > allowed) {
      rep.add("solution.residual_mismatch",
              "column " + std::to_string(c) + ": true relative residual " +
                  std::to_string(true_rel[c]) + " vs reported " +
                  std::to_string(r.relative_residual) + " (allowed " +
                  std::to_string(allowed) + ")",
              true_rel[c]);
    }
  }
}

}  // namespace pdslin::check
