// Iterative solve-path study: per-apply time and iteration throughput of
// the implicit Schur operator as the outer thread count grows, plus the
// multi-RHS batch amortization of the shared operator/preconditioner.
//
// Invariants hard-checked here (exit 1 on violation):
//   - the parallel solve is bitwise identical to the serial solve at every
//     thread count (deterministic block-ordered stitching);
//   - repeated solve() calls perform no workspace allocation after the
//     first (SolverStats::solve_workspace_allocs stays flat);
//   - enabling tracing neither changes a single bit of the solution nor
//     costs more than 5% of apply throughput (each side's best of 7
//     interleaved untraced/traced batches on the same factored solver, plus
//     a small absolute slack for timer noise).
//
// Emits one JSON line (prefix "JSON ") with iterations/s and per-apply
// seconds per configuration, and a standard "BENCH {...}" RunReport line,
// for the bench trajectory.
//
// Environment: PDSLIN_BENCH_SCALE, PDSLIN_BENCH_SEED (see bench_common.hpp),
// PDSLIN_BENCH_MATRIX (suite name, default tdr190k),
// PDSLIN_BENCH_NRHS (batch width, default 8).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/ops.hpp"

using namespace pdslin;

namespace {

std::vector<value_t> random_batch(index_t n, index_t nrhs, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> b(static_cast<std::size_t>(n) *
                         static_cast<std::size_t>(nrhs));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

struct SolveRun {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  double seconds_per_apply = 0.0;
  double iterations_per_second = 0.0;
  long long applies = 0;
  long long workspace_allocs_first = 0;
  long long workspace_allocs_second = 0;
  int iterations = 0;
  bool converged = false;
  std::vector<value_t> x;
};

SolveRun run_solve(const GeneratedProblem& p, unsigned threads, index_t nrhs,
                   std::uint64_t seed) {
  SolverOptions opt = bench::bench_solver_options();
  opt.num_subdomains = 8;
  opt.threads = threads;
  SchurSolver solver(p.a, opt);
  solver.setup(p.incidence.rows > 0 ? &p.incidence : nullptr);
  solver.factor();

  const std::vector<value_t> b = random_batch(p.a.rows, nrhs, seed);
  SolveRun r;
  r.x.assign(b.size(), 0.0);
  // Warm-up solve: fills any lazily grown Krylov workspace, so the timed
  // solve below measures the allocation-free steady state.
  solver.solve_multi(b, r.x, nrhs);
  r.workspace_allocs_first = solver.stats().solve_workspace_allocs;

  std::fill(r.x.begin(), r.x.end(), 0.0);
  const std::vector<GmresResult> results = solver.solve_multi(b, r.x, nrhs);
  const SolverStats& st = solver.stats();
  r.workspace_allocs_second = st.solve_workspace_allocs;
  r.seconds = st.solve_seconds;
  r.cpu_seconds = st.solve_cpu_seconds;
  r.seconds_per_apply = st.seconds_per_apply();
  r.iterations_per_second = st.iterations_per_second();
  r.applies = st.solve_applies;
  r.iterations = st.iterations;
  r.converged = st.converged;
  return r;
}

}  // namespace

int main() {
  bench::print_header(
      "SOLVE PATH — parallel allocation-free iterative phase",
      "the amortized-solve regime of §I (preprocessing vs. iteration cost)");
  const double scale = bench::bench_scale(1.0);
  const std::uint64_t seed = bench::bench_seed();
  std::string name = "tdr190k";
  if (const char* m = std::getenv("PDSLIN_BENCH_MATRIX")) name = m;
  index_t nrhs = 8;
  if (const char* s = std::getenv("PDSLIN_BENCH_NRHS")) {
    const int v = std::atoi(s);
    if (v >= 1) nrhs = static_cast<index_t>(v);
  }

  const GeneratedProblem p = make_suite_matrix(name, scale, seed);
  std::printf("matrix %s: n=%d nnz=%d, nrhs=%d, pool=%u threads\n",
              p.name.c_str(), p.a.rows, p.a.nnz(), nrhs,
              ThreadPool::shared().size());

  const std::vector<unsigned> thread_counts{1, 2, 4};
  std::vector<SolveRun> runs;
  bool identical = true;
  bool alloc_free = true;
  std::printf("\n%-8s | %-10s | %-12s | %-10s | %-9s | %s\n", "threads",
              "solve[s]", "ms/apply", "iters/s", "speedup", "cpu/wall");
  for (unsigned t : thread_counts) {
    runs.push_back(run_solve(p, t, nrhs, seed + 101));
    const SolveRun& r = runs.back();
    if (runs.size() > 1) identical = identical && r.x == runs.front().x;
    alloc_free =
        alloc_free && r.workspace_allocs_first == r.workspace_allocs_second;
    std::printf("%-8u | %10.4f | %12.5f | %10.1f | %8.2fx | %.2f\n", t,
                r.seconds, r.seconds_per_apply * 1e3, r.iterations_per_second,
                runs.front().seconds / r.seconds,
                r.seconds > 0.0 ? r.cpu_seconds / r.seconds : 0.0);
  }
  std::printf("\nbitwise-identical X across thread counts: %s\n",
              identical ? "yes" : "NO — BUG");
  std::printf("allocation-free steady state (flat workspace counter): %s\n",
              alloc_free ? "yes" : "NO — BUG");
  std::printf("converged: %s, %d Krylov iterations, %lld applies per run\n",
              runs.front().converged ? "yes" : "NO", runs.front().iterations,
              runs.front().applies);

  std::printf("\nJSON {\"bench\":\"solve_path\",\"matrix\":\"%s\",\"n\":%d,"
              "\"nrhs\":%d,\"pool_threads\":%u,\"iterations\":%d,"
              "\"applies\":%lld,\"solve_seconds\":{",
              p.name.c_str(), p.a.rows, nrhs, ThreadPool::shared().size(),
              runs.front().iterations, runs.front().applies);
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::printf("%s\"t%u\":%.6f", i ? "," : "", thread_counts[i],
                runs[i].seconds);
  }
  std::printf("},\"seconds_per_apply\":{");
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::printf("%s\"t%u\":%.8f", i ? "," : "", thread_counts[i],
                runs[i].seconds_per_apply);
  }
  std::printf("},\"iterations_per_second\":{");
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::printf("%s\"t%u\":%.2f", i ? "," : "", thread_counts[i],
                runs[i].iterations_per_second);
  }
  std::printf("},\"speedup_t4\":%.3f,\"identical\":%s,\"alloc_free\":%s}\n",
              runs.front().seconds / runs.back().seconds,
              identical ? "true" : "false", alloc_free ? "true" : "false");

  // --- Tracing overhead and bit-exactness check (hard-fail). One factored
  // solver serves all batches, so only the steady-state solve path is
  // compared. Untraced and traced batches alternate, so drift in the host's
  // speed hits both sides alike; each side's best of 7 plus an absolute
  // slack keeps timer noise out.
  SolverOptions topt = bench::bench_solver_options();
  topt.num_subdomains = 8;
  topt.threads = 2;
  SchurSolver tsolver(p.a, topt);
  tsolver.setup(p.incidence.rows > 0 ? &p.incidence : nullptr);
  tsolver.factor();
  const std::vector<value_t> tb = random_batch(p.a.rows, nrhs, seed + 101);
  std::vector<value_t> x_off(tb.size(), 0.0), x_on(tb.size(), 0.0);
  tsolver.solve_multi(tb, x_off, nrhs);  // warm-up
  auto timed_solve = [&](std::vector<value_t>& x) {
    std::fill(x.begin(), x.end(), 0.0);
    tsolver.solve_multi(tb, x, nrhs);
    return tsolver.stats().solve_seconds;
  };
  double off_best = 1e300;
  double on_best = 1e300;
  bool trace_bits_ok = true;
  for (int pair = 0; pair < 7; ++pair) {
    off_best = std::min(off_best, timed_solve(x_off));
    obs::trace_enable();
    on_best = std::min(on_best, timed_solve(x_on));
    obs::trace_disable();
    trace_bits_ok = trace_bits_ok && x_on == x_off;
  }
  // ≤5% relative plus 2ms absolute slack for sub-millisecond solves.
  const bool trace_cost_ok = on_best <= off_best * 1.05 + 2e-3;
  const double overhead = off_best > 0.0 ? on_best / off_best - 1.0 : 0.0;
  std::printf("\ntracing on/off: solution bitwise identical: %s\n",
              trace_bits_ok ? "yes" : "NO — BUG");
  std::printf("tracing overhead: %.4fs -> %.4fs (%+.2f%%), within 5%%: %s\n",
              off_best, on_best, overhead * 100.0,
              trace_cost_ok ? "yes" : "NO — BUG");

  obs::RunReport report =
      bench::make_bench_report("bench/solve_path", p, topt, tsolver.stats());
  report.set_stat("trace_overhead_ratio", overhead);
  report.set_stat("trace_bitwise_identical", trace_bits_ok ? 1.0 : 0.0);
  report.set_stat("parallel_bitwise_identical", identical ? 1.0 : 0.0);
  report.set_stat("alloc_free_steady_state", alloc_free ? 1.0 : 0.0);
  bench::emit_bench_report(report);
  return identical && alloc_free && trace_bits_ok && trace_cost_ok ? 0 : 1;
}
