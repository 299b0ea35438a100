// In-process solve service: a persistent front end that turns the repo's
// setup-heavy hybrid solver into a throughput engine for streams of solve
// requests (the ROADMAP's serving north star; the amortized-repeated-solve
// regime the paper's setup/solve split exists for).
//
// Request lifecycle — every request is answered on its own, as one task on
// the shared thread pool:
//   submit() → the request check (a malformed matrix, incidence or b, or a
//              non-finite value, is answered Failed at once)
//            → bounded queue (reject-with-status when full — backpressure)
//            → a task starts for it while fewer than config.workers run;
//              a task that ends hands its slot to the next queued request
//              (the solver's own two-level parallelism runs inside the same
//              pool, nesting-safe)
//            → factorization cache consulted (serve/factor_cache.hpp):
//              full hit → cached const setup; symbolic hit → partition
//              adopted, factor() redone; miss → full setup. One build per
//              key at a time: a miss on a key whose build is in flight
//              parks until that build ends, then is answered from it.
//              Each of the three is used only when it was partitioned on
//              the request's own incidence (DbbdPartition::incidence_hash);
//              otherwise the request builds its own set-up
//            → one solve_multi over the request's own right-hand sides
//            → the response through std::future.
//
// Degradation ladder (no request ever takes the service down):
//   1. hybrid solve with a cached/fresh setup            → Ok
//   2. setup threw (singular subdomain LU, singular S̃) → plain
//      unpreconditioned GMRES/BiCGSTAB on A              → Degraded
//   3. hybrid solve did not converge                     → same fallback;
//      fallback converged → Degraded, else               → Failed
//   4. queue deadline exceeded when taken from the queue → Timeout
//   5. queue full / service stopping                     → Rejected
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/schur_solver.hpp"
#include "serve/factor_cache.hpp"
#include "serve/fingerprint.hpp"

namespace pdslin::serve {

/// Terminal status of one request, ordered roughly by health.
enum class ServeStatus {
  Ok,        // hybrid solve converged
  Degraded,  // setup failed or hybrid did not converge; fallback answered
  Timeout,   // exceeded its deadline while queued
  Rejected,  // bounded queue full (backpressure) or service stopped
  Failed,    // no path produced a converged answer (x = best effort)
};

const char* to_string(ServeStatus s);

/// One solve job: A X = B for `nrhs` column-major right-hand sides. The
/// matrix travels by shared_ptr so a workload of repeated systems carries
/// one copy.
struct SolveRequest {
  std::shared_ptr<const CsrMatrix> a;
  /// Optional incidence/structural factor for RHB (see SchurSolver::setup).
  std::shared_ptr<const CsrMatrix> incidence;
  /// Problem geometry (3 doubles per unknown). Not read: a set-up depends
  /// on the matrix, the incidence and the options alone. It stays only for
  /// callers that still fill it.
  std::shared_ptr<const std::vector<double>> coords;
  std::vector<value_t> b;  // n × nrhs, column-major
  index_t nrhs = 1;
  SolverOptions opt;
  /// Queue deadline in seconds; 0 = no deadline. Checked each time the
  /// request is taken from the queue (a running solve is never preempted).
  double timeout_seconds = 0.0;
};

struct SolveResponse {
  ServeStatus status = ServeStatus::Ok;
  std::vector<value_t> x;               // n × nrhs, column-major
  std::vector<GmresResult> columns;     // per right-hand side
  bool cache_hit = false;               // full setup reuse
  bool symbolic_reuse = false;          // partition reuse, values re-factored
  int batch_width = 0;                  // the request's own nrhs
  std::string detail;                   // degradation / failure explanation
  double queue_seconds = 0.0;           // includes any wait on another build
  double setup_seconds = 0.0;           // this request's build, failed or not
  double solve_seconds = 0.0;           // hybrid solve plus any fallback
};

struct ServiceConfig {
  /// Bounded queue depth, requests parked behind a build included; submits
  /// beyond it are Rejected (backpressure).
  std::size_t queue_capacity = 256;
  /// Requests answered concurrently on the shared pool.
  unsigned workers = 2;
  FactorCacheConfig cache;
  /// Ablation switch (bench/serve measures off vs on). Off, every request
  /// builds its own setup.
  bool enable_cache = true;
};

struct ServiceStats {
  long long accepted = 0;
  long long rejected = 0;
  long long completed = 0;  // responded with any terminal status
  long long ok = 0;
  long long degraded = 0;
  long long failed = 0;
  long long timeouts = 0;
  long long batches = 0;       // requests begun (deadline met), each once
  long long batched_nrhs = 0;  // their summed nrhs
  long long setups_built = 0;  // cold + symbolic-reuse builds
};

/// The service. Thread-safe: submit() from any thread; responses complete
/// on pool threads. Destruction drains every accepted request first.
class SolveService {
 public:
  explicit SolveService(ServiceConfig cfg = {});
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Enqueue a request. The future is always eventually satisfied — with
  /// Failed ("invalid request: …") immediately when the request check
  /// (check_request_matrix/_incidence/_rhs in core/schur_solver.hpp, and b
  /// of n × nrhs values) fails, with Rejected immediately when the queue is
  /// full or the service is stopping, with Timeout/Degraded/Failed per the
  /// ladder otherwise.
  std::future<SolveResponse> submit(SolveRequest req);

  /// submit() + wait.
  SolveResponse solve(SolveRequest req);

  /// Deterministic drain: submits after this call (even from other threads
  /// already racing it) are Rejected, every request accepted before it is
  /// executed to a terminal status, and stop() returns only once all of
  /// them have been answered. Safe to call from any number of threads
  /// concurrently. The destructor calls it.
  void stop();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] FactorCache& cache() { return cache_; }
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }

 private:
  /// What a finished build hands to the requests parked behind it.
  struct BuildOutcome {
    std::shared_ptr<CachedSetup> setup;  // null when the build threw
    std::string detail;                  // the failure, when it threw
  };

  struct PendingRequest {
    SolveRequest req;
    SetupKey key;
    std::uint64_t incidence = 0;  // incidence_hash_of(req.incidence)
    std::promise<SolveResponse> promise;
    std::chrono::steady_clock::time_point enqueued;
    /// Set when the request parked behind another request's build of its
    /// key and that build ended; it is then answered from this outcome.
    std::shared_ptr<const BuildOutcome> handoff;
  };

  /// Pop the queue front and run it as a pool task. Requires mu_ held and
  /// a worker slot already counted in running_ for the task.
  void start_front_locked();
  /// Pool task body: answer one request, then hand the slot on.
  void run(PendingRequest& pr);
  /// Deadline check, cache ladder, solve, respond. Never throws. Leaves `pr`
  /// moved-from when it parks the request behind a build in flight.
  void answer(PendingRequest& pr);
  /// Build pr's setup — the cached partition adopted when there is one,
  /// else cold — and cache it. Never throws: on failure returns null with
  /// the reason in resp.detail. Records resp.setup_seconds either way.
  std::shared_ptr<CachedSetup> build(const PendingRequest& pr,
                                     SolveResponse& resp);
  /// Release the claim on `key` and requeue its parked requests at the
  /// queue front, in arrival order, carrying `outcome`.
  void hand_off(const SetupKey& key, std::shared_ptr<const BuildOutcome> outcome);
  void respond(PendingRequest& pr, SolveResponse&& resp);

  ServiceConfig cfg_;
  FactorCache cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_idle_;  // stop(): the last task ended
  std::deque<PendingRequest> queue_;
  /// A build in flight: the incidence it partitions on, and the requests
  /// with that incidence parked behind it.
  struct Build {
    std::uint64_t incidence = 0;
    std::vector<PendingRequest> parked;
  };
  /// Keys whose build is in flight → that build. The claim check, the park
  /// and the hand-off all hold mu_.
  std::map<SetupKey, Build> builds_;
  std::size_t parked_ = 0;  // requests in builds_, charged to queue_capacity
  unsigned running_ = 0;    // tasks started and not yet ended
  bool stopping_ = false;
  ServiceStats stats_;
};

}  // namespace pdslin::serve
