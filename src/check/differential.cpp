#include "check/differential.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "hypergraph/bisect.hpp"
#include "hypergraph/hypergraph.hpp"
#include "serve/service.hpp"
#include "sparse/convert.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pdslin::check {

namespace {

std::vector<value_t> make_rhs(index_t n, index_t nrhs, std::uint64_t seed) {
  Rng rng(seed ^ 0xb5297a4d3f84d5b5ULL);
  std::vector<value_t> b(static_cast<std::size_t>(n) * nrhs);
  for (value_t& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

bool bitwise_equal(const std::vector<value_t>& x, const std::vector<value_t>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(value_t)) == 0);
}

/// Run one pipeline instance; returns false (error in `err`) on a throw.
bool run_pipeline(const GeneratedProblem& prob, const SolverOptions& opt,
                  std::span<const value_t> b, std::vector<value_t>& x,
                  index_t nrhs, std::vector<GmresResult>& results,
                  std::unique_ptr<SchurSolver>& out, std::string& err) {
  try {
    out = std::make_unique<SchurSolver>(prob.a, opt);
    out->setup(prob.incidence.rows > 0 ? &prob.incidence : nullptr);
    out->factor();
    x.assign(static_cast<std::size_t>(prob.a.rows) * nrhs, 0.0);
    results = out->solve_multi(b, x, nrhs);
    return true;
  } catch (const Error& e) {
    err = e.what();
    return false;
  }
}

/// Rerun the case under `rerun`; it must solve, to `x` bit for bit. `first`
/// and `second` name the original and the rerun configuration.
void check_rerun_bitwise(const GeneratedProblem& prob, const CaseSpec& rerun,
                         std::span<const value_t> b,
                         const std::vector<value_t>& x, const char* threw_key,
                         const char* mismatch_key, const std::string& first,
                         const std::string& second, CheckReport& rep) {
  std::unique_ptr<SchurSolver> solver;
  std::vector<value_t> rx;
  std::vector<GmresResult> results;
  std::string err;
  if (!run_pipeline(prob, solver_options_for(rerun), b, rx, rerun.nrhs,
                    results, solver, err)) {
    rep.add(threw_key,
            second + " rerun threw where the " + first + " run solved: " + err);
  } else if (!bitwise_equal(x, rx)) {
    rep.add(mismatch_key,
            first + " solution differs bitwise from " + second);
  }
}

void check_serve_path(const GeneratedProblem& prob, const CaseSpec& spec,
                      const std::vector<value_t>& b,
                      const std::vector<value_t>& direct_x,
                      CheckReport& rep) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.adapt.enabled = spec.adaptive_sigma;
  serve::SolveService service(cfg);
  auto shared_a = std::make_shared<const CsrMatrix>(prob.a);
  std::shared_ptr<const CsrMatrix> shared_inc;
  if (prob.incidence.rows > 0) {
    shared_inc = std::make_shared<const CsrMatrix>(prob.incidence);
  }
  auto make_request = [&] {
    serve::SolveRequest req;
    req.a = shared_a;
    req.incidence = shared_inc;
    req.b = b;
    req.nrhs = spec.nrhs;
    req.opt = solver_options_for(spec);
    return req;
  };

  // A direct (service-free) pipeline run at a specific S̃ drop tolerance —
  // the reference for the adaptive-σ lanes, where the controller may build
  // the setup at a σ different from the request's static drop_s. The
  // response's tuned_drop_s must reproduce the served answer bitwise.
  auto direct_at_sigma = [&](double sigma, std::vector<value_t>& out,
                             std::string& err) {
    SolverOptions o = solver_options_for(spec);
    o.assembly.drop_s = sigma;
    std::unique_ptr<SchurSolver> s;
    std::vector<GmresResult> rs;
    return run_pipeline(prob, o, b, out, spec.nrhs, rs, s, err);
  };
  const double static_sigma = solver_options_for(spec).assembly.drop_s;

  const serve::SolveResponse cold = service.solve(make_request());
  if (cold.status != serve::ServeStatus::Ok) {
    rep.add("serve.cold_status",
            std::string("cold request ended ") + to_string(cold.status) +
                " although the direct pipeline solved: " + cold.detail);
    return;
  }
  const std::vector<value_t>* cold_ref = &direct_x;
  std::vector<value_t> tuned_x;
  if (spec.adaptive_sigma && cold.tuned_drop_s != static_sigma) {
    std::string derr;
    if (!direct_at_sigma(cold.tuned_drop_s, tuned_x, derr)) {
      rep.add("serve.adapt_direct_threw",
              "direct rerun at the served tuned σ threw: " + derr);
      return;
    }
    cold_ref = &tuned_x;
  }
  if (!bitwise_equal(cold.x, *cold_ref)) {
    rep.add(spec.adaptive_sigma ? "serve.adapt_cold_mismatch"
                                : "serve.cold_mismatch",
            "served answer differs bitwise from the direct solve at the "
            "response's drop tolerance");
  }
  const serve::SolveResponse warm = service.solve(make_request());
  if (warm.status != serve::ServeStatus::Ok) {
    rep.add("serve.warm_status",
            std::string("cached request ended ") + to_string(warm.status));
    return;
  }
  if (spec.adaptive_sigma) {
    const serve::AdaptConfig& ac = service.config().adapt;
    if (warm.tuned_drop_s < ac.sigma_min || warm.tuned_drop_s > ac.sigma_max) {
      rep.add("serve.adapt_sigma_bounds",
              "tuned σ = " + std::to_string(warm.tuned_drop_s) +
                  " escaped [sigma_min, sigma_max]");
    }
  }
  if (warm.tuned_drop_s == cold.tuned_drop_s) {
    // σ stable between the two requests → the cache entry was reusable and
    // the answers must agree bitwise.
    if (!warm.cache_hit) {
      rep.add("serve.no_cache_hit",
              "identical repeat request missed the factorization cache");
    }
    if (!bitwise_equal(warm.x, cold.x)) {
      rep.add("serve.warm_mismatch",
              "cached answer differs bitwise from the cold answer");
    }
  } else {
    // The controller retuned σ between the requests (rebuild-and-replace
    // path): the warm answer must still equal a direct solve at its σ.
    std::vector<value_t> retuned_x;
    std::string derr;
    if (!direct_at_sigma(warm.tuned_drop_s, retuned_x, derr)) {
      rep.add("serve.adapt_direct_threw",
              "direct rerun at the retuned σ threw: " + derr);
    } else if (!bitwise_equal(warm.x, retuned_x)) {
      rep.add("serve.adapt_warm_mismatch",
              "retuned answer differs bitwise from the direct solve at its "
              "tuned σ");
    }
  }
}

}  // namespace

DifferentialResult run_differential(const CaseSpec& spec,
                                    const DifferentialOptions& opt) {
  DifferentialResult res;
  const GeneratedProblem prob = build_case(spec);
  const index_t n = prob.a.rows;
  res.n = n;

  // Dense oracle on the full system: singularity + condition proxy + X*.
  const DenseLu oracle_lu = dense_lu(dense_from_csr(prob.a));
  res.oracle_singular = oracle_lu.singular;
  res.condition_estimate = oracle_lu.condition_estimate();

  const std::vector<value_t> b = make_rhs(n, spec.nrhs, spec.seed);
  std::vector<value_t> x_oracle;
  if (!oracle_lu.singular) {
    x_oracle.assign(b.size(), 0.0);
    dense_lu_solve(oracle_lu, b, x_oracle, spec.nrhs);
  }

  // Hypergraph incremental-bookkeeping diff (independent of the solver
  // pipeline, but part of every case so the partitioner's bookkeeping is
  // fuzzed over the same matrix distribution).
  if (opt.check_bisection && n >= 4) {
    const Hypergraph h = column_net_model(pattern_of(prob.a));
    HgBisectOptions bopt;
    bopt.seed = spec.seed;
    const HgBisection bis = bisect_hypergraph(h, bopt);
    check_bisection_state(h, bis, res.report);
  }

  // Full pipeline.
  const SolverOptions sopt = solver_options_for(spec);
  std::unique_ptr<SchurSolver> solver;
  std::vector<value_t> x;
  std::vector<GmresResult> results;
  std::string err;
  if (!run_pipeline(prob, sopt, b, x, spec.nrhs, results, solver, err)) {
    res.solver_threw = true;
    res.solver_error = err;
    // A throw is legitimate when the problem is (near-)singular — the
    // pipeline's sparse LU refusing a pivot the oracle also finds
    // degenerate — or when an interior block D_ℓ of the pipeline's own
    // partition is (near-)singular: the hybrid method needs every D_ℓ
    // invertible even inside a healthy global matrix (the singular-block
    // generator plants exactly this). Anything else is a bug.
    bool tolerated = oracle_lu.singular ||
                     res.condition_estimate >= opt.max_condition_for_throw;
    if (!tolerated) {
      try {
        SchurSolver probe(prob.a, sopt);
        probe.setup(prob.incidence.rows > 0 ? &prob.incidence : nullptr);
        tolerated = interior_block_condition(prob.a, probe.partition()) >=
                    opt.max_condition_for_throw;
      } catch (const Error&) {
        // setup itself threw — judged below like any other throw
      }
    }
    if (!tolerated) {
      res.report.add("pipeline.unexpected_throw",
                     "pipeline threw on a well-conditioned matrix (cond ≈ " +
                         std::to_string(res.condition_estimate) + "): " + err,
                     res.condition_estimate);
    }
    return res;
  }

  // Stage checks on the factored solver. With drops enabled the discarded
  // W̃/G̃ mass is amplified by Ũ_ℓ⁻¹/L̃_ℓ⁻¹ on its way into T̃ = W̃G̃, so the
  // achievable S̃ accuracy degrades with the interior-block conditioning —
  // the exact (zero-drop) configs keep the tight oracle comparison.
  SchurCheckOptions schur_opt;
  if (spec.exact_assembly) {
    schur_opt.rel_tol = opt.exact_schur_rel_tol;
  } else {
    schur_opt.rel_tol =
        opt.dropped_schur_rel_tol *
        std::max(1.0, interior_block_condition(prob.a, solver->partition()));
  }
  check_solver(*solver, schur_opt, res.report);

  // Krylov honesty + solution accuracy.
  check_solution(prob.a, x, b, results, spec.nrhs, opt.solution, res.report);
  res.all_converged =
      std::all_of(results.begin(), results.end(),
                  [](const GmresResult& r) { return r.converged; });
  if (!oracle_lu.singular && res.all_converged &&
      res.condition_estimate < opt.max_condition_for_solution) {
    double x_scale = 0.0;
    for (const value_t v : x_oracle) x_scale = std::max(x_scale, std::abs(v));
    x_scale = std::max(x_scale, 1.0);
    double worst = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      worst = std::max(worst, std::abs(x[i] - x_oracle[i]));
    }
    // Forward-error bound: ‖x − x*‖ ≲ cond(A) · true residual · ‖x*‖. The
    // solver reports the full-system true residual, so the allowance follows
    // the residual it actually achieved, with a ×10 safety factor.
    double max_rel = 0.0;
    for (const GmresResult& r : results) {
      max_rel = std::max(max_rel, static_cast<double>(r.relative_residual));
    }
    const double allowed =
        std::max({1e-8, res.condition_estimate * 1e-11,
                  10.0 * res.condition_estimate * max_rel}) *
        x_scale;
    if (worst > allowed) {
      res.report.add("solution.oracle_mismatch",
                     "‖x − x_oracle‖_max = " + std::to_string(worst) +
                         " exceeds " + std::to_string(allowed) + " (cond ≈ " +
                         std::to_string(res.condition_estimate) + ")",
                     worst / x_scale);
    }
  }

  // Thread determinism: parallel must be bitwise identical to serial.
  if (opt.check_determinism &&
      (spec.threads > 1 || spec.inner_threads > 1 ||
       spec.partition_engine == PartitionEngineAxis::ParallelMultilevel ||
       spec.partition_values != partition::ValueMode::Off)) {
    CaseSpec serial = spec;
    serial.threads = 1;
    serial.inner_threads = 1;
    // The parallel-partition lane reruns on the serial recursion: the
    // engine's thread-count determinism contract, enforced end to end.
    if (serial.partition_engine == PartitionEngineAxis::ParallelMultilevel) {
      serial.partition_engine = PartitionEngineAxis::Multilevel;
    }
    // A value-weighted lane that already ran fully serial diffs against the
    // parallel partition recursion instead — same contract, other direction:
    // |a_ij|-weighted net costs must not perturb thread-count determinism.
    if (spec.partition_values != partition::ValueMode::Off &&
        spec.threads <= 1 && spec.inner_threads <= 1 &&
        spec.partition_engine == PartitionEngineAxis::Multilevel) {
      serial.partition_engine = PartitionEngineAxis::ParallelMultilevel;
    }
    check_rerun_bitwise(prob, serial, b, x, "determinism.serial_threw",
                        "determinism.threads", "parallel", "serial",
                        res.report);
  }

  // Kernel determinism: the panel kernel reproduces the scalar kernel bit
  // for bit on every input, fallback or not, so the lu-panel lane reruns
  // the case on lu-scalar and diffs the full solution.
  if (opt.check_determinism && spec.lu_kernel == LuKernelAxis::Panel) {
    CaseSpec scalar = spec;
    scalar.lu_kernel = LuKernelAxis::Scalar;
    check_rerun_bitwise(prob, scalar, b, x, "determinism.lu_kernel",
                        "determinism.lu_kernel", "lu-panel", "lu-scalar",
                        res.report);
  }

  // Serve path: cold vs cached vs direct, all bitwise. Only judged when the
  // direct solve converged — otherwise the service legitimately walks its
  // degradation ladder (plain-Krylov fallback) and the answers differ.
  if (spec.serve && res.all_converged) {
    check_serve_path(prob, spec, b, x, res.report);
  }
  return res;
}

}  // namespace pdslin::check
