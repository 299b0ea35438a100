// The traced run: per-layer metrics for one workload.
//
// 1. The workload runs untraced, then traced, for half the time each. The
//    untraced half supplies the serve and parallel layer numbers; the ratio
//    of the two halves' headline metric is trace.overhead_frac.
// 2. The replay rebuilds the workload's main system layer by layer through
//    the library's public functions, timing each call from outside under a
//    span of its own: setup() for the partition, then extract_subdomain +
//    assemble_subdomain per subdomain, extract_separator_block +
//    assemble_schur, the SchurPreconditioner constructor and its
//    apply_with_scratch. Counts come from the SubdomainFactorization
//    timers, MultiRhsStats and deltas of the library's obs counters. The
//    replayed S̃ must equal the solver's own bitwise and the LU(S̃) fill
//    must equal its precond_nnz, or the run aborts.
// 3. One traced batch of 8 right-hand sides on that system gives the
//    Krylov split, from the library's own solve.column / gmres /
//    schur.apply spans in the exported Chrome trace.
// A dropped trace event aborts the run.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>

#include "core/preconditioner.hpp"
#include "core/schur_assembly.hpp"
#include "core/subdomain.hpp"
#include "harness.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace pdslin::benchmark {

namespace {

constexpr std::uint64_t kStreamReplay = 6ULL << 32;
constexpr index_t kReplayRhs = 8;
constexpr int kPrecondApplies = 20;

long long counter(const char* name) { return obs::counter(name).value(); }

double max_over_mean(std::span<const double> v) {
  const Summary s = summarize(v);
  return s.avg > 0.0 ? s.max / s.avg : 1.0;
}

double max_over_mean(const std::vector<long long>& v) {
  const std::vector<double> d(v.begin(), v.end());
  return max_over_mean(std::span<const double>(d));
}

bool same_bits(const CsrMatrix& x, const CsrMatrix& y) {
  const auto eq = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
  };
  return x.rows == y.rows && x.cols == y.cols && eq(x.row_ptr, y.row_ptr) &&
         eq(x.col_idx, y.col_idx) && eq(x.values, y.values);
}

struct SpanTotal {
  double ms = 0.0;
  long long count = 0;
};

/// Summed duration and count of each span name in a Chrome trace document.
std::map<std::string, SpanTotal> span_totals(const std::string& chrome_json) {
  std::map<std::string, SpanTotal> totals;
  const obs::json::Value doc = obs::json::parse(chrome_json);
  for (const obs::json::Value& e : doc.at("traceEvents").array) {
    if (e.at("ph").str != "X") continue;
    SpanTotal& t = totals[e.at("name").str];
    t.ms += e.at("dur").number / 1e3;
    ++t.count;
  }
  return totals;
}

/// Runs `body` under a benchmark-owned span and returns its wall seconds.
template <typename F>
double timed(const char* span, F&& body) {
  const obs::TraceSpan s(span);
  const Clock::time_point t0 = Clock::now();
  body();
  return seconds_since(t0);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Replay of the set-up, layer by layer, plus the traced Krylov batch.
void replay(const Config& cfg, const WorkloadRun& run, Result& r) {
  const GeneratedProblem& p = *run.primary;
  const SolverOptions& opt = run.primary_opt;
  const index_t k = opt.num_subdomains;
  const Clock::time_point setup_start = Clock::now();

  const long long bisections0 = counter("rhb.bisections");
  SchurSolver solver(p.a, opt);
  const double partition_s = timed("bench.partition", [&] {
    solver.setup(p.incidence.rows > 0 ? &p.incidence : nullptr, p.coords);
  });
  const long long bisections = counter("rhb.bisections") - bisections0;

  const long long lu_flops0 = counter("lu.panel.total_flops");
  const long long fallbacks0 = counter("lu.panel.fallbacks");
  const long long spgemm_flops0 = counter("spgemm.flops");
  std::vector<Subdomain> subs(static_cast<std::size_t>(k));
  std::vector<SubdomainFactorization> facts(static_cast<std::size_t>(k));
  std::vector<double> lu_d(static_cast<std::size_t>(k));
  std::vector<double> comp_s(static_cast<std::size_t>(k));
  double solve_g = 0.0, solve_w = 0.0, gemm = 0.0, reorder = 0.0;
  long long fill_d = 0, padded = 0, pattern = 0;
  for (index_t l = 0; l < k; ++l) {
    const auto i = static_cast<std::size_t>(l);
    const double extract_s = timed("bench.extract_subdomain", [&] {
      subs[i] = extract_subdomain(solver.matrix(), solver.partition(), l);
    });
    const double assemble_s = timed("bench.assemble_subdomain", [&] {
      facts[i] = assemble_subdomain(subs[i], opt.assembly);
    });
    const SubdomainFactorization& f = facts[i];
    // LU(D_ℓ) is everything up to the factors; Comp(S_ℓ) the rest of the
    // call — the G/W solves, the drops and the T̃ GEMM.
    lu_d[i] = extract_s + f.order_seconds + f.factor_seconds;
    comp_s[i] = assemble_s - f.order_seconds - f.factor_seconds;
    solve_g += f.solve_g_seconds;
    solve_w += f.solve_w_seconds;
    gemm += f.gemm_seconds;
    reorder += f.reorder_seconds;
    fill_d += f.lu.fill_nnz();
    padded += f.g_stats.padded_zeros + f.w_stats.padded_zeros;
    pattern += f.g_stats.pattern_nnz + f.w_stats.pattern_nnz;
  }
  const long long lu_d_flops = counter("lu.panel.total_flops") - lu_flops0;
  const long long lu_d_fallbacks = counter("lu.panel.fallbacks") - fallbacks0;
  const long long spgemm_flops = counter("spgemm.flops") - spgemm_flops0;

  CsrMatrix s_tilde;
  const unsigned gather_threads =
      std::max(1u, opt.threads) * std::max(1u, opt.assembly.inner_threads);
  const double gather_s = timed("bench.gather", [&] {
    const CsrMatrix c = extract_separator_block(solver.matrix(), solver.partition());
    s_tilde = assemble_schur(c, subs, facts, opt.assembly.drop_s, gather_threads);
  });

  const long long total0 = counter("lu.panel.total_flops");
  const long long gemm0 = counter("lu.panel.gemm_flops");
  const long long fallbacks1 = counter("lu.panel.fallbacks");
  std::unique_ptr<SchurPreconditioner> precond;
  const double lu_s = timed("bench.lu_schur", [&] {
    precond = std::make_unique<SchurPreconditioner>(s_tilde, opt.assembly.lu,
                                                    opt.assembly.trisolve);
  });
  const long long lu_s_flops = counter("lu.panel.total_flops") - total0;
  const long long lu_s_gemm = counter("lu.panel.gemm_flops") - gemm0;
  const long long lu_s_fallbacks = counter("lu.panel.fallbacks") - fallbacks1;
  const double setup_wall = seconds_since(setup_start);

  std::vector<double> apply_ms;
  {
    const std::vector<value_t> v = random_rhs(s_tilde.rows, 1, cfg.seed, kStreamReplay);
    std::vector<value_t> out(v.size()), scratch;
    for (int rep = 0; rep < kPrecondApplies; ++rep) {
      apply_ms.push_back(1e3 * timed("bench.precond_apply", [&] {
        precond->apply_with_scratch(v, out, scratch);
      }));
    }
  }

  // The solver's own factor() is the reference the replay must reproduce.
  solver.factor();
  if (!same_bits(s_tilde, solver.schur_tilde())) {
    throw InvariantError("replayed S~ differs from the solver's");
  }
  if (precond->factor_nnz() != solver.stats().precond_nnz) {
    throw InvariantError("replayed LU(S~) fill differs from the solver's");
  }

  const double lu_d_total = std::accumulate(lu_d.begin(), lu_d.end(), 0.0);
  const double comp_s_total = std::accumulate(comp_s.begin(), comp_s.end(), 0.0);
  const DbbdStats& part = solver.stats().partition;
  r.add("partition.s", partition_s, "s");
  r.add("partition.bisections", static_cast<double>(bisections), "count");
  r.add("partition.separator_size",
        static_cast<double>(solver.partition().separator_size()), "count");
  r.add("partition.imbalance_nnz_d", max_over_mean(part.nnz_d), "ratio");
  r.add("partition.imbalance_nnz_e", max_over_mean(part.nnz_e), "ratio");
  r.add("direct.lu_d.s", lu_d_total, "s");
  r.add("direct.lu_d.s_max", *std::max_element(lu_d.begin(), lu_d.end()), "s");
  r.add("direct.lu_d.imbalance", max_over_mean(lu_d), "ratio");
  r.add("direct.lu_d.fill_nnz", static_cast<double>(fill_d), "count");
  // Flops are counted by the panel kernel only; a factorization that fell
  // back to the scalar kernel adds a fallback and no flops.
  r.add("direct.lu_d.flops", static_cast<double>(lu_d_flops), "count");
  r.add("direct.lu_d.panel_fallbacks", static_cast<double>(lu_d_fallbacks), "count");
  r.add("core.comp_s.s", comp_s_total, "s");
  r.add("core.comp_s.solve_g_s", solve_g, "s");
  r.add("core.comp_s.solve_w_s", solve_w, "s");
  r.add("core.comp_s.gemm_s", gemm, "s");
  r.add("core.comp_s.reorder_s", reorder, "s");
  r.add("core.comp_s.s_max", *std::max_element(comp_s.begin(), comp_s.end()), "s");
  r.add("core.comp_s.padded_zeros", static_cast<double>(padded), "count");
  r.add("core.comp_s.padded_fraction",
        padded + pattern > 0 ? static_cast<double>(padded) /
                                   static_cast<double>(padded + pattern)
                             : 0.0,
        "fraction");
  r.add("core.comp_s.spgemm_flops", static_cast<double>(spgemm_flops), "count");
  r.add("core.gather.s", gather_s, "s");
  r.add("core.gather.schur_nnz", static_cast<double>(s_tilde.nnz()), "count");
  r.add("direct.lu_s.s", lu_s, "s");
  r.add("direct.lu_s.fill_nnz", static_cast<double>(precond->factor_nnz()), "count");
  r.add("direct.lu_s.flops", static_cast<double>(lu_s_flops), "count");
  r.add("direct.lu_s.panel_fallbacks", static_cast<double>(lu_s_fallbacks), "count");
  r.add("direct.lu_s.gflops", static_cast<double>(lu_s_flops) / lu_s / 1e9, "GFLOP/s");
  r.add("direct.lu_s.gemm_fraction",
        lu_s_flops > 0 ? static_cast<double>(lu_s_gemm) /
                             static_cast<double>(lu_s_flops)
                       : 0.0,
        "fraction");
  r.add("trace.setup_coverage",
        (partition_s + lu_d_total + comp_s_total + gather_s + lu_s) / setup_wall,
        "fraction");

  // Krylov split: one batch, its spans exported alone.
  const auto n = static_cast<std::size_t>(p.a.rows);
  const std::vector<value_t> bs = random_rhs(p.a.rows, kReplayRhs, cfg.seed, kStreamReplay + 1);
  std::vector<value_t> xs(bs.size(), 0.0);
  SchurSolver::SolveContext ctx;
  const long long dropped_setup = obs::trace_counters().dropped;
  const std::string setup_trace = obs::trace_to_chrome_json();
  obs::trace_reset();
  const std::vector<GmresResult> cols = solver.solve_multi(bs, xs, kReplayRhs, ctx);
  const std::string krylov_trace = obs::trace_to_chrome_json();
  const long long dropped = dropped_setup + obs::trace_counters().dropped;
  long long iterations = 0;
  for (index_t j = 0; j < kReplayRhs; ++j) {
    const std::size_t off = static_cast<std::size_t>(j) * n;
    ++r.attempted;
    if (!(relative_residual(p.a, std::span(bs).subspan(off, n),
                            std::span(xs).subspan(off, n)) <= kResidualBound)) {
      ++r.failed;
    }
    iterations += cols[static_cast<std::size_t>(j)].iterations;
  }
  std::map<std::string, SpanTotal> spans = span_totals(krylov_trace);
  const SpanTotal& column = spans["solve.column"];
  const SpanTotal& gmres_span = spans["gmres"];
  const SpanTotal& apply = spans["schur.apply"];
  const double rhs = static_cast<double>(kReplayRhs);
  const double applies_per_rhs = static_cast<double>(ctx.applies) / rhs;
  const double precond_ms = median(apply_ms);
  const double gmres_self = (gmres_span.ms - apply.ms) / rhs;
  r.add("iterative.iters_per_rhs", static_cast<double>(iterations) / rhs, "count");
  r.add("iterative.op_applies_per_rhs", applies_per_rhs, "count");
  r.add("iterative.op_apply_ms", apply.count > 0 ? apply.ms / apply.count : 0.0, "ms");
  r.add("iterative.precond_apply_ms", precond_ms, "ms");
  r.add("iterative.gmres_self_ms_per_rhs", gmres_self, "ms");
  // Derived, not measured: GMRES self time less one preconditioner apply
  // per operator apply (right preconditioning pairs them).
  r.add("iterative.orth_ms_per_rhs_derived", gmres_self - applies_per_rhs * precond_ms, "ms");
  r.add("iterative.reduce_backsub_ms_per_rhs", (column.ms - gmres_span.ms) / rhs, "ms");
  r.add("iterative.workspace_allocs", static_cast<double>(ctx.allocations()), "count");
  r.add("trace.dropped_events", static_cast<double>(dropped), "count");

  if (!cfg.trace_dir.empty()) {
    write_file(cfg.trace_dir + "/" + cfg.workload + ".setup.trace.json", setup_trace);
    write_file(cfg.trace_dir + "/" + cfg.workload + ".krylov.trace.json", krylov_trace);
  }
  if (dropped > 0) {
    throw InvariantError("the trace dropped " + std::to_string(dropped) + " events");
  }
}

}  // namespace

Result run_traced(const Config& cfg) {
  const long long executed0 = counter("pool.tasks_executed");
  const long long stolen0 = counter("pool.tasks_stolen");
  const WorkloadRun plain = run_workload(cfg, cfg.seconds / 2);
  const long long executed = counter("pool.tasks_executed") - executed0;
  const long long stolen = counter("pool.tasks_stolen") - stolen0;

  obs::TraceOptions topt;
  topt.buffer_capacity = 1u << 17;
  obs::trace_reset();
  obs::trace_enable(topt);
  const WorkloadRun traced = run_workload(cfg, cfg.seconds / 2);
  const long long dropped = obs::trace_counters().dropped;
  if (!cfg.trace_dir.empty()) {
    write_file(cfg.trace_dir + "/" + cfg.workload + ".workload.trace.json",
               obs::trace_to_chrome_json());
  }
  if (dropped > 0) {
    throw InvariantError("the trace dropped " + std::to_string(dropped) + " events");
  }

  Result r;
  obs::trace_reset();
  replay(cfg, traced, r);
  obs::trace_disable();

  const SolverStats& st = plain.primary_stats;
  r.add("parallel.solve_cpu_per_wall", plain.solve_cpu_s / plain.solve_wall_s, "ratio");
  r.add("parallel.subdomain_speedup",
        st.subdomain_seconds_cpu() / st.subdomain_wall_seconds, "ratio");
  r.add("parallel.pool_tasks", static_cast<double>(executed + stolen), "tasks");
  r.add("parallel.steal_ratio",
        executed + stolen > 0 ? static_cast<double>(stolen) /
                                    static_cast<double>(executed + stolen)
                              : 0.0,
        "fraction");

  // The medians and tails beside the end-to-end minima, with their sample
  // counts.
  r.add("iterative.solve_ms_per_rhs_p50", median(plain.solve_ms_per_rhs), "ms");
  r.add("iterative.solve_samples", static_cast<double>(plain.solve_ms_per_rhs.size()),
        "samples");
  const ServedStats& s = plain.served;
  const double replies = static_cast<double>(s.replies);
  r.add("serve.latency_ms_p50", median(s.latency_ms), "ms");
  r.add("serve.latency_ms_p90", quantile(s.latency_ms, 0.90), "ms");
  r.add("serve.replies", replies, "replies");
  r.add("serve.replies_per_s", replies / s.wall_s, "1/s");
  r.add("serve.queue_ms_p50", median(s.queue_ms), "ms");
  r.add("serve.queue_ms_p99", quantile(s.queue_ms, 0.99), "ms");
  r.add("serve.solve_ms_p50", median(s.solve_ms), "ms");
  const double latency_s =
      std::accumulate(s.latency_ms.begin(), s.latency_ms.end(), 0.0) / 1e3;
  r.add("serve.setup_share", s.setup_s_sum / latency_s, "fraction");
  r.add("serve.hit_ratio", static_cast<double>(s.hits) / replies, "fraction");
  r.add("serve.symbolic_ratio", static_cast<double>(s.symbolic) / replies, "fraction");
  r.add("serve.cold_ratio", static_cast<double>(s.cold) / replies, "fraction");
  r.add("serve.batch_width_mean",
        s.batches > 0 ? static_cast<double>(s.batched_nrhs) /
                            static_cast<double>(s.batches)
                      : 0.0,
        "rhs");
  r.add("serve.cache_evictions", static_cast<double>(s.cache_evictions), "evictions");
  r.add("serve.cache_mb", s.cache_mb, "MB");

  r.add("trace.overhead_frac",
        traced.result.get(traced.headline) / plain.result.get(plain.headline) - 1.0,
        "fraction");
  r.attempted += plain.result.attempted + traced.result.attempted;
  r.failed += plain.result.failed + traced.result.failed;
  return r;
}

}  // namespace pdslin::benchmark
