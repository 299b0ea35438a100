// pdslin_bench: the repository benchmark's program. One process runs one
// workload (see workloads.cpp for the four and why each exists) and prints
// every metric as "workload metric value unit", then one JSON summary line.
//
// This header holds what the workloads, the traced layer replay
// (layers.cpp) and main.cpp share: the run configuration, the metric
// record, the output checks, and the closed-loop client that drives the
// solve service.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/schur_solver.hpp"
#include "gen/problem.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace pdslin::benchmark {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured time of one run; generating the systems (and serve-mix's
  /// warm-ups) comes on top.
  double seconds = 20.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Tiny inputs and one repetition — checks the plumbing, not the speed.
  bool smoke = false;
  /// Directory for the Chrome traces of a traced run (empty: not written).
  std::string trace_dir;
};

/// A broken benchmark invariant, as opposed to a failed operation: the run
/// aborts with a nonzero exit status and prints no result.
struct InvariantError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: its metrics in print order, plus every checked
/// operation (solve, served reply, warm-up) and how many failed.
struct Result {
  std::vector<Metric> metrics;
  long long attempted = 0;
  long long failed = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Value of a metric added earlier; throws if absent.
  [[nodiscard]] double get(std::string_view name) const;
};

/// Median and nearest-rank quantile of a non-empty sample.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// The workloads' solver settings: RHB with the soed metric, k = 8,
/// drop_wg 1e-6, drop_s 1e-5 — the paper's thresholded configuration,
/// matching the repository benches' defaults.
SolverOptions bench_options();

/// Independent random stream `stream` of the run seeded with `seed`.
Rng stream_rng(std::uint64_t seed, std::uint64_t stream);
/// n × nrhs column-major right-hand sides, uniform in [-1, 1).
std::vector<value_t> random_rhs(index_t n, index_t nrhs, std::uint64_t seed,
                                std::uint64_t stream);

/// Every answer must satisfy ‖b − A x‖ / ‖b‖ ≤ this: ten times the GMRES
/// tolerance, recomputed here with spmv rather than taken from the solver.
inline constexpr double kResidualBound = 1e-11;
double relative_residual(const CsrMatrix& a, std::span<const value_t> b,
                         std::span<const value_t> x);

/// Construct, partition and factor one solver (what setup_s times).
std::shared_ptr<SchurSolver> build_solver(const GeneratedProblem& p,
                                          const SolverOptions& opt);

/// The process's peak resident set size so far.
double peak_rss_mb();

/// Served traffic: what a request asks of the service's setup cache.
enum class RequestKind {
  Hit,       // a cached system with a fresh right-hand side (a read)
  Refactor,  // cached pattern, shifted values: factor() redone (a write)
  Cold,      // a pattern the service has never seen: full set-up
};

struct ServedRequest {
  serve::SolveRequest req;
  RequestKind kind = RequestKind::Hit;
};

/// Builds request `index` of a deterministic request sequence.
using RequestMaker = std::function<ServedRequest(long long index)>;

struct ServedStats {
  std::vector<double> latency_ms;      // submit → reply, every reply
  std::vector<double> queue_ms;        // SolveResponse::queue_seconds
  std::vector<double> solve_ms;        // SolveResponse::solve_seconds
  std::vector<double> hit_ms_per_rhs;  // batch solve time / width, hits
  double setup_s_sum = 0.0;            // Σ SolveResponse::setup_seconds
  long long replies = 0;
  long long failed = 0;
  long long hits = 0;
  long long symbolic = 0;
  long long cold = 0;
  double wall_s = 0.0;  // first submit → last reply
  double cpu_s = 0.0;   // process CPU over the same interval
  // Service and cache counters over the same interval.
  long long batches = 0;
  long long batched_nrhs = 0;
  long long cache_evictions = 0;
  double cache_mb = 0.0;  // at the end

  /// Appends the samples and adds the counts of a later interval.
  ServedStats& operator+=(const ServedStats& later);
};

/// Closed loop: `clients` threads each submit one request, wait for its
/// reply, check it, and submit the next, until `seconds` have passed (each
/// client sends at least one request, so `seconds` = 0 sends one each).
/// Requests are drawn in index order from `make`. A reply fails unless its
/// status is Ok and its residual is within kResidualBound; a cold request
/// answered from the cache, or a hit that was not, throws InvariantError.
ServedStats serve_closed_loop(serve::SolveService& svc, const RequestMaker& make,
                              double seconds, unsigned clients);

/// One execution of a workload's measured loop.
struct WorkloadRun {
  Result result;  // the end-to-end metrics
  /// The end-to-end metric whose traced/untraced ratio gives the tracing
  /// overhead.
  std::string headline;
  /// The system the traced run replays layer by layer, and its options.
  std::shared_ptr<const GeneratedProblem> primary;
  SolverOptions primary_opt;
  SolverStats primary_stats;  // of the last set-up of that system
  /// Every measured solve, in milliseconds per right-hand side (serve-mix:
  /// each hit's batch solve time / batch width).
  std::vector<double> solve_ms_per_rhs;
  ServedStats served;
  double solve_wall_s = 0.0;  // the measured solves' wall time
  double solve_cpu_s = 0.0;   // and process CPU over them
};

std::vector<std::string> workload_names();
/// Scale of the workload's main system (the suite generators' unit).
double workload_scale(const Config& cfg);
WorkloadRun run_workload(const Config& cfg, double seconds);

/// The traced run: the workload untraced and traced for half the time each,
/// then the layer-by-layer replay. Returns the per-layer metrics.
Result run_traced(const Config& cfg);

}  // namespace pdslin::benchmark
