#include "core/schur_solver.hpp"

#include <algorithm>
#include <cmath>

#include "core/structural_factor.hpp"
#include "direct/trisolve.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "partition/engine.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "sparse/symmetrize.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace pdslin {

namespace {

std::size_t csr_bytes(const CsrMatrix& m) {
  return m.row_ptr.size() * sizeof(index_t) +
         m.col_idx.size() * sizeof(index_t) + m.values.size() * sizeof(value_t);
}

std::size_t index_bytes(const std::vector<index_t>& v) {
  return v.size() * sizeof(index_t);
}

/// LinearOperator view binding the shared (const) LU(S̃) preconditioner to a
/// per-context scratch buffer, so concurrent solves never share apply state.
class PrecondView final : public LinearOperator {
 public:
  PrecondView(const SchurPreconditioner& p, std::vector<value_t>& scratch)
      : p_(p), scratch_(scratch) {}
  [[nodiscard]] index_t size() const override { return p_.size(); }
  void apply(std::span<const value_t> x, std::span<value_t> y) const override {
    p_.apply_with_scratch(x, y, scratch_);
  }

 private:
  const SchurPreconditioner& p_;
  std::vector<value_t>& scratch_;
};

}  // namespace

SchurSolver::SchurSolver(CsrMatrix a, SolverOptions opt)
    : a_(std::move(a)), opt_(std::move(opt)) {
  PDSLIN_CHECK_MSG(a_.rows == a_.cols, "solver needs a square matrix");
  PDSLIN_CHECK_MSG(a_.has_values(), "solver needs numeric values");
  PDSLIN_CHECK_MSG(opt_.num_subdomains >= 1 &&
                       (opt_.num_subdomains & (opt_.num_subdomains - 1)) == 0,
                   "num_subdomains must be a power of two");
}

void SchurSolver::setup(const CsrMatrix* incidence,
                        std::span<const double> coords) {
  PDSLIN_SPAN("setup.partition");
  WallTimer timer;
  // Geometry is optional: silently drop coordinate spans of the wrong shape
  // (e.g. a problem generated before the coords were threaded through).
  if (!coords.empty() &&
      coords.size() != static_cast<std::size_t>(a_.rows) * 3) {
    coords = {};
  }
  partition::EngineOptions eng;
  eng.engine = opt_.partition_engine;
  eng.budget.max_ms = opt_.partition_budget_ms;
  eng.budget.min_quality = opt_.partition_min_quality;
  eng.threads = opt_.threads;
  eng.coords = coords;

  std::vector<index_t> part;
  std::vector<index_t> separator_order;  // NGD elimination order when known
  partition::Stats pstats;
  const bool value_weighted =
      opt_.partition_values != partition::ValueMode::Off;
  if (opt_.partitioning == PartitionMethod::NGD) {
    PDSLIN_SPAN("setup.ngd");
    // Value mode keeps the |A| + |Aᵀ| magnitudes so edges can be bucketed;
    // the sparsity pattern (and hence the graph) is identical either way.
    const CsrMatrix sym =
        value_weighted ? symmetrize_abs(a_) : symmetrize_abs(pattern_of(a_));
    Graph g = graph_from_matrix(sym);
    if (opt_.ngd_weighted) {
      for (index_t v = 0; v < g.n; ++v) g.vwgt[v] = sym.row_nnz(v);
    }
    apply_value_weights(g, sym, opt_.partition_values);
    NgdOptions nopt;
    nopt.num_parts = opt_.num_subdomains;
    nopt.epsilon = opt_.partition_epsilon;
    nopt.seed = opt_.seed;
    partition::EngineResult r = partition::ngd_engine(g, nopt, eng);
    part = std::move(r.unknowns.part);
    separator_order = std::move(r.unknowns.separator_order);
    pstats = r.stats;
  } else {
    PDSLIN_SPAN("setup.rhb");
    CsrMatrix m_local;
    const CsrMatrix* m = incidence;
    if (m == nullptr || m->rows == 0) {
      const CsrMatrix sym = symmetrize_abs(pattern_of(a_));
      m_local = clique_cover_factor(sym);
      m = &m_local;
    }
    PDSLIN_CHECK_MSG(m->cols == a_.rows,
                     "incidence columns must match the matrix dimension");
    RhbOptions ropt;
    ropt.num_parts = opt_.num_subdomains;
    ropt.metric = opt_.metric;
    ropt.constraints = opt_.constraints;
    ropt.dynamic_weights = opt_.rhb_dynamic_weights;
    ropt.epsilon = opt_.partition_epsilon;
    ropt.seed = opt_.seed;
    // Value-weighted nets: each unknown (column of M) is weighted by the
    // strongest |a_ij| coupling it participates in, bucketed onto small
    // integers — cutting a strongly coupled unknown into the separator
    // costs more, so RHB prefers separating weak couplings.
    std::vector<index_t> col_value;
    if (value_weighted) {
      std::vector<double> mag(static_cast<std::size_t>(a_.rows), 0.0);
      double maxabs = 0.0;
      for (index_t i = 0; i < a_.rows; ++i) {
        for (index_t p = a_.row_ptr[i]; p < a_.row_ptr[i + 1]; ++p) {
          const index_t j = a_.col_idx[p];
          if (j == i) continue;
          const double v = std::abs(a_.values[p]);
          mag[static_cast<std::size_t>(i)] =
              std::max(mag[static_cast<std::size_t>(i)], v);
          mag[static_cast<std::size_t>(j)] =
              std::max(mag[static_cast<std::size_t>(j)], v);
          maxabs = std::max(maxabs, v);
        }
      }
      col_value.resize(static_cast<std::size_t>(a_.rows));
      for (index_t j = 0; j < a_.rows; ++j) {
        col_value[static_cast<std::size_t>(j)] =
            static_cast<index_t>(partition::value_weight(
                mag[static_cast<std::size_t>(j)], maxabs,
                opt_.partition_values));
      }
      eng.col_value = col_value;
    }
    partition::EngineResult r = partition::rhb_engine(*m, ropt, eng);
    part = std::move(r.unknowns.part);
    pstats = r.stats;
  }
  {
    PDSLIN_SPAN("setup.dbbd");
    dbbd_ = build_dbbd(part, opt_.num_subdomains, separator_order);
  }
  stats_.partition_seconds = timer.seconds();
  stats_.partition_engine = pstats.engine_label();
  stats_.partition_multilevel_subtrees = pstats.multilevel_subtrees;
  stats_.partition_fallback_subtrees = pstats.fallback_subtrees;
  stats_.partition_budget_exhausted = pstats.budget_exhausted;
  stats_.partition_balance_ratio = pstats.balance_ratio;
  obs::gauge("partition.separator_size")
      .set(static_cast<double>(dbbd_.separator_size()));
  obs::counter("partition.subtrees.multilevel").add(pstats.multilevel_subtrees);
  obs::counter("partition.subtrees.fallback").add(pstats.fallback_subtrees);
  if (pstats.budget_exhausted) obs::counter("partition.budget.exhausted").add();
  obs::gauge("partition.balance_ratio").set(pstats.balance_ratio);
  obs::gauge("partition.elapsed_ms").set(pstats.elapsed_ms);
  obs::gauge("partition.value_weighted").set(value_weighted ? 1.0 : 0.0);
  stats_.partition = dbbd_stats(a_, dbbd_);
  stats_.schur_dim = dbbd_.separator_size();
  setup_done_ = true;
  factor_done_ = false;
  log_info("partition: ", to_string(opt_.partitioning), " k=",
           opt_.num_subdomains, " engine=", stats_.partition_engine,
           " separator=", dbbd_.separator_size(), " (",
           stats_.partition_seconds, "s)");
}

void SchurSolver::adopt_partition(DbbdPartition dbbd) {
  PDSLIN_SPAN("setup.adopt_partition");
  PDSLIN_CHECK_MSG(dbbd.n == a_.rows,
                   "adopted partition must cover the matrix dimension");
  PDSLIN_CHECK_MSG(dbbd.num_parts == opt_.num_subdomains,
                   "adopted partition must match num_subdomains");
  WallTimer timer;
  dbbd_ = std::move(dbbd);
  stats_.partition_seconds = timer.seconds();
  obs::gauge("partition.separator_size")
      .set(static_cast<double>(dbbd_.separator_size()));
  stats_.partition = dbbd_stats(a_, dbbd_);
  stats_.schur_dim = dbbd_.separator_size();
  setup_done_ = true;
  factor_done_ = false;
  log_info("partition: adopted k=", opt_.num_subdomains,
           " separator=", dbbd_.separator_size());
}

void SchurSolver::factor() {
  PDSLIN_SPAN("factor");
  PDSLIN_CHECK_MSG(setup_done_, "call setup() before factor()");
  const index_t k = opt_.num_subdomains;
  subs_.resize(k);
  facts_.resize(k);
  stats_.lu_d_seconds.assign(k, 0.0);
  stats_.comp_s_seconds.assign(k, 0.0);

  auto process_domain = [&](int l) {
    PDSLIN_SPAN_I("subdomain", l);
    subs_[l] = extract_subdomain(a_, dbbd_, l);
    facts_[l] = assemble_subdomain(subs_[l], opt_.assembly);
    stats_.lu_d_seconds[l] =
        facts_[l].order_seconds + facts_[l].factor_seconds;
    stats_.comp_s_seconds[l] = facts_[l].solve_g_seconds +
                               facts_[l].solve_w_seconds +
                               facts_[l].reorder_seconds +
                               facts_[l].gemm_seconds;
  };
  // Two-level execution on the shared pool: at most opt_.threads subdomain
  // tasks run concurrently (the outer k of the paper's np = k × (np/k)
  // layout); each fans its RHS blocks / GEMM rows out with
  // opt_.assembly.inner_threads workers. TaskGroup::wait helps execute
  // queued tasks, so the nesting cannot deadlock on any pool size.
  WallTimer timer;
  {
    PDSLIN_SPAN("factor.subdomains");
    if (opt_.threads > 1) {
      parallel_for(ThreadPool::shared(), k, process_domain, opt_.threads);
    } else {
      for (index_t l = 0; l < k; ++l) process_domain(l);
    }
  }
  stats_.subdomain_wall_seconds = timer.seconds();

  timer.reset();
  {
    PDSLIN_SPAN("factor.gather");
    c_block_ = extract_separator_block(a_, dbbd_);
    // The gather runs alone, so it may use the whole thread budget.
    const unsigned gather_threads =
        std::max(1u, opt_.threads) * std::max(1u, opt_.assembly.inner_threads);
    s_tilde_ = assemble_schur(c_block_, subs_, facts_, opt_.assembly.drop_s,
                              gather_threads);
  }
  stats_.gather_seconds = timer.seconds();
  stats_.schur_nnz = s_tilde_.nnz();

  if (s_tilde_.rows > 0) {
    PDSLIN_SPAN("factor.lu_schur");
    precond_ = std::make_unique<SchurPreconditioner>(s_tilde_, opt_.assembly.lu,
                                                     opt_.assembly.trisolve);
    stats_.lu_s_seconds = precond_->factor_seconds();
    stats_.precond_nnz = precond_->factor_nnz();
  } else {
    // Degenerate but legal: no separator (block-diagonal matrix or k = 1).
    precond_.reset();
    stats_.lu_s_seconds = 0.0;
    stats_.precond_nnz = 0;
  }

  factor_done_ = true;

  // Preallocate the member solve path so every later solve() runs without
  // touching the heap inside the Schur operator.
  ctx_.sub.clear();
  prepare_context(ctx_);
  stats_.solve_workspace_allocs = ctx_.allocations();

  log_info("factor: LU(S~) nnz=", stats_.precond_nnz, " (",
           stats_.lu_s_seconds, "s)");
}

void SchurSolver::prepare_context(SolveContext& ctx) const {
  PDSLIN_CHECK_MSG(factor_done_, "call factor() before prepare_context()");
  const index_t k = opt_.num_subdomains;
  const index_t ns = dbbd_.separator_size();
  if (ctx.sub.size() != static_cast<std::size_t>(k)) {
    ctx.sub.assign(k, {});
    ++ctx.scratch_allocs;
    for (index_t l = 0; l < k; ++l) {
      const Subdomain& sub = subs_[l];
      SubdomainSolveScratch& ws = ctx.sub[l];
      const auto nd = static_cast<std::size_t>(sub.d.rows);
      ws.v.resize(sub.e_cols.size());
      ws.t.resize(nd);
      ws.z.resize(nd);
      ws.w.resize(nd);
      ws.r.resize(sub.f_rows.size());
      ws.dinv_f.resize(nd);
      ctx.scratch_allocs += 6;
    }
  }
  if (ctx.ghat.size() < static_cast<std::size_t>(ns)) {
    ctx.ghat.resize(ns);
    ctx.y.resize(ns);
    ctx.precond.resize(ns);
    ctx.scratch_allocs += 3;
  }
  if (ctx.resid.size() < static_cast<std::size_t>(a_.rows)) {
    ctx.resid.resize(a_.rows);
    ++ctx.scratch_allocs;
  }
}

std::size_t SchurSolver::memory_bytes() const {
  std::size_t bytes = csr_bytes(a_);
  bytes += index_bytes(dbbd_.part) + index_bytes(dbbd_.perm) +
           index_bytes(dbbd_.iperm) + index_bytes(dbbd_.domain_offset);
  for (const Subdomain& sub : subs_) {
    bytes += csr_bytes(sub.d) + csr_bytes(sub.ehat) + csr_bytes(sub.fhat);
    bytes += index_bytes(sub.interior) + index_bytes(sub.e_cols) +
             index_bytes(sub.f_rows);
  }
  for (const SubdomainFactorization& f : facts_) {
    bytes += f.lu.memory_bytes();  // factors + panel metadata
    bytes += index_bytes(f.colmap) + index_bytes(f.rowmap);
    bytes += csr_bytes(f.t_tilde);
  }
  bytes += csr_bytes(c_block_) + csr_bytes(s_tilde_);
  // LU(S̃): nnz(L+U) values + row indices, plus the permutation vectors.
  bytes += static_cast<std::size_t>(stats_.precond_nnz) *
           (sizeof(value_t) + sizeof(index_t));
  bytes += 2 * static_cast<std::size_t>(stats_.schur_dim) * sizeof(index_t);
  return bytes;
}

void SchurSolver::for_each_subdomain(
    const std::function<void(int)>& body) const {
  const index_t k = opt_.num_subdomains;
  if (opt_.threads > 1 && k > 1) {
    parallel_for(ThreadPool::shared(), k, body, opt_.threads);
  } else {
    for (index_t l = 0; l < k; ++l) body(l);
  }
}

void SchurSolver::domain_solve_scratch(index_t l, std::span<const value_t> b,
                                       std::span<value_t> z,
                                       std::vector<value_t>& w) const {
  const SubdomainFactorization& f = facts_[l];
  const index_t nd = f.lu.n;
  PDSLIN_CHECK(b.size() == static_cast<std::size_t>(nd));
  PDSLIN_CHECK(z.size() == static_cast<std::size_t>(nd));
  PDSLIN_ASSERT(w.size() >= static_cast<std::size_t>(nd));
  const std::span<value_t> ws(w.data(), static_cast<std::size_t>(nd));
  for (index_t kk = 0; kk < nd; ++kk) ws[kk] = b[f.rowmap[kk]];
  lower_solve_dense(f.lu.lower, ws, /*unit_diag=*/true);
  upper_solve_dense(f.lu.upper, ws);
  for (index_t j = 0; j < nd; ++j) z[f.colmap[j]] = ws[j];
}

void SchurSolver::domain_solve(index_t l, std::span<const value_t> b,
                               std::span<value_t> z) const {
  std::vector<value_t> w(facts_[l].lu.n);
  domain_solve_scratch(l, b, z, w);
}

// Implicit Schur operator: S y = C y − Σ_ℓ F̂_ℓ D_ℓ⁻¹ Ê_ℓ (R_Eᵀ y).
//
// The per-subdomain sweeps write only into the bound context's preallocated
// scratch and run concurrently under the outer thread budget; the
// separator-row subtractions are then stitched serially in subdomain order,
// so the result is bitwise identical to the serial sweep for any thread
// count (the same block-ordered-stitching discipline as direct/multirhs.cpp).
class SchurSolver::SchurOperator final : public LinearOperator {
 public:
  SchurOperator(const SchurSolver& s, SolveContext& ctx) : s_(s), ctx_(ctx) {}
  [[nodiscard]] index_t size() const override {
    return s_.dbbd_.separator_size();
  }
  void apply(std::span<const value_t> y, std::span<value_t> out) const override {
    PDSLIN_SPAN("schur.apply");
    ++ctx_.applies;
    spmv(s_.c_block_, y, out);
    s_.for_each_subdomain([&](int l) {
      PDSLIN_SPAN_I("schur.sweep", l);
      const Subdomain& sub = s_.subs_[l];
      SubdomainSolveScratch& ws = ctx_.sub[l];
      for (std::size_t c = 0; c < sub.e_cols.size(); ++c) {
        ws.v[c] = y[sub.e_cols[c]];
      }
      spmv(sub.ehat, ws.v, ws.t);
      s_.domain_solve_scratch(l, ws.t, ws.z, ws.w);
      spmv(sub.fhat, ws.z, ws.r);
    });
    // Deterministic stitch: subdomains may share separator rows, so the
    // subtraction order is fixed to ascending ℓ regardless of schedule.
    for (index_t l = 0; l < s_.opt_.num_subdomains; ++l) {
      const Subdomain& sub = s_.subs_[l];
      const SubdomainSolveScratch& ws = ctx_.sub[l];
      for (std::size_t fr = 0; fr < sub.f_rows.size(); ++fr) {
        out[sub.f_rows[fr]] -= ws.r[fr];
      }
    }
  }

 private:
  const SchurSolver& s_;
  SolveContext& ctx_;
};

GmresResult SchurSolver::solve_column(const SchurOperator& op,
                                      std::span<const value_t> b,
                                      std::span<value_t> x,
                                      SolveContext& ctx) const {
  const index_t k = opt_.num_subdomains;
  const index_t ns = dbbd_.separator_size();
  const index_t sep_begin = dbbd_.domain_offset[k];
  const std::span<value_t> ghat(ctx.ghat.data(), static_cast<std::size_t>(ns));
  const std::span<value_t> y(ctx.y.data(), static_cast<std::size_t>(ns));

  // ĝ = g − Σ F_ℓ D_ℓ⁻¹ f_ℓ. The D_ℓ⁻¹ f_ℓ solves and F̂ products run
  // per-subdomain in parallel (disjoint scratch); the reduction onto ĝ is
  // stitched serially in subdomain order, exactly like the operator apply.
  for (index_t s = 0; s < ns; ++s) ghat[s] = b[dbbd_.perm[sep_begin + s]];
  for_each_subdomain([&](int l) {
    const Subdomain& sub = subs_[l];
    const index_t nd = sub.d.rows;
    SubdomainSolveScratch& ws = ctx.sub[l];
    const std::span<value_t> f(ws.t.data(), static_cast<std::size_t>(nd));
    for (index_t i = 0; i < nd; ++i) f[i] = b[sub.interior[i]];
    domain_solve_scratch(l, f, ws.dinv_f, ws.w);
    spmv(sub.fhat, ws.dinv_f, ws.r);
  });
  for (index_t l = 0; l < k; ++l) {
    const Subdomain& sub = subs_[l];
    const SubdomainSolveScratch& ws = ctx.sub[l];
    for (std::size_t fr = 0; fr < sub.f_rows.size(); ++fr) {
      ghat[sub.f_rows[fr]] -= ws.r[fr];
    }
  }

  // Krylov solve of the Schur system with the LU(S̃) preconditioner, its
  // apply bound to this context's scratch (concurrent solves never share).
  std::fill(y.begin(), y.end(), 0.0);
  std::optional<PrecondView> precond;
  if (precond_) precond.emplace(*precond_, ctx.precond);
  const LinearOperator* m = precond ? &*precond : nullptr;
  GmresResult res;
  if (opt_.krylov == KrylovMethod::Bicgstab) {
    const BicgstabResult br =
        bicgstab(op, m, ghat, y, opt_.bicgstab, &ctx.bicgstab);
    res.iterations = br.iterations;
    res.relative_residual = br.relative_residual;
    res.converged = br.converged;
  } else {
    res = gmres(op, m, ghat, y, opt_.gmres, &ctx.gmres);
  }

  // Back-substitution: u_ℓ = D_ℓ⁻¹ (f_ℓ − E_ℓ y) = dinv_f − D⁻¹ Ê (R y).
  // Interior index sets are disjoint across subdomains, so the x writes
  // need no stitching.
  for_each_subdomain([&](int l) {
    const Subdomain& sub = subs_[l];
    const index_t nd = sub.d.rows;
    SubdomainSolveScratch& ws = ctx.sub[l];
    for (std::size_t c = 0; c < sub.e_cols.size(); ++c) {
      ws.v[c] = y[sub.e_cols[c]];
    }
    spmv(sub.ehat, ws.v, ws.t);
    domain_solve_scratch(l, ws.t, ws.z, ws.w);
    for (index_t i = 0; i < nd; ++i) {
      x[sub.interior[i]] = ws.dinv_f[i] - ws.z[i];
    }
  });
  for (index_t s = 0; s < ns; ++s) x[dbbd_.perm[sep_begin + s]] = y[s];

  // Report the residual of the system the caller asked about: ‖b − A x‖/‖b‖
  // on the FULL matrix. The Krylov residual above is for the Schur system
  // only; back-substitution through an ill-conditioned interior block can
  // leave a much larger full-system residual, and reporting the Schur number
  // there would be dishonest (check::check_solution gates on this).
  const std::span<value_t> ax(ctx.resid.data(),
                              static_cast<std::size_t>(a_.rows));
  spmv(a_, x, ax);
  double rnorm2 = 0.0, bnorm2 = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    const double d = b[i] - ax[i];
    rnorm2 += d * d;
    bnorm2 += b[i] * b[i];
  }
  if (bnorm2 > 0.0) {
    const double true_rel = std::sqrt(rnorm2 / bnorm2);
    if (std::isfinite(true_rel)) {
      res.relative_residual = true_rel;
      // A converged Schur solve whose back-substitution (through an
      // ill-conditioned D_ℓ) lost the full-system residual did not converge
      // in any sense the caller cares about.
      const double tol = opt_.krylov == KrylovMethod::Bicgstab
                             ? opt_.bicgstab.rel_tolerance
                             : opt_.gmres.rel_tolerance;
      res.converged = res.converged && true_rel <= tol * 10.0;
    }
  }
  return res;
}

std::vector<GmresResult> SchurSolver::solve_multi(std::span<const value_t> b,
                                                  std::span<value_t> x,
                                                  index_t nrhs,
                                                  SolveContext& ctx) const {
  PDSLIN_CHECK_MSG(factor_done_, "call factor() before solve()");
  PDSLIN_CHECK_MSG(nrhs >= 1, "need at least one right-hand side");
  const auto n = static_cast<std::size_t>(a_.rows);
  PDSLIN_CHECK(b.size() == n * static_cast<std::size_t>(nrhs));
  PDSLIN_CHECK(x.size() == n * static_cast<std::size_t>(nrhs));
  PDSLIN_SPAN("solve");

  prepare_context(ctx);
  const SchurOperator op(*this, ctx);

  // One operator, preconditioner and workspace set serves every column.
  std::vector<GmresResult> results;
  results.reserve(nrhs);
  for (index_t j = 0; j < nrhs; ++j) {
    PDSLIN_SPAN_I("solve.column", j);
    results.push_back(
        solve_column(op, b.subspan(j * n, n), x.subspan(j * n, n), ctx));
  }
  return results;
}

GmresResult SchurSolver::solve(std::span<const value_t> b,
                               std::span<value_t> x, SolveContext& ctx) const {
  return solve_multi(b, x, 1, ctx).front();
}

std::vector<GmresResult> SchurSolver::solve_multi(std::span<const value_t> b,
                                                  std::span<value_t> x,
                                                  index_t nrhs) {
  WallTimer timer;
  CpuTimer cpu;
  const long long applies_before = ctx_.applies;
  std::vector<GmresResult> results = solve_multi(b, x, nrhs, ctx_);

  stats_.solve_seconds = timer.seconds();
  stats_.solve_cpu_seconds = cpu.seconds();
  stats_.solve_applies = ctx_.applies - applies_before;
  stats_.operator_applies += stats_.solve_applies;
  stats_.nrhs = nrhs;
  stats_.iterations = 0;
  stats_.relative_residual = 0.0;
  stats_.converged = true;
  for (const GmresResult& r : results) {
    stats_.iterations += r.iterations;
    stats_.relative_residual =
        std::max(stats_.relative_residual, r.relative_residual);
    stats_.converged = stats_.converged && r.converged;
  }
  // Workspace growth, if any, happened during this batch; refresh the
  // exported counter so callers can pin the allocation-free steady state.
  stats_.solve_workspace_allocs = ctx_.allocations();
  return results;
}

GmresResult SchurSolver::solve(std::span<const value_t> b,
                               std::span<value_t> x) {
  return solve_multi(b, x, 1).front();
}

}  // namespace pdslin
