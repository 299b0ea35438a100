// In-process solve service: a persistent front end that turns the repo's
// setup-heavy hybrid solver into a throughput engine for streams of solve
// requests (the ROADMAP's serving north star; the amortized-repeated-solve
// regime the paper's setup/solve split exists for).
//
// Request lifecycle:
//   submit() → bounded queue (reject-with-status when full — backpressure)
//            → dispatcher thread forms same-key batches (serve/batcher.hpp)
//            → batch executes on the shared thread pool (≤ config.workers
//              batches concurrently; the solver's own two-level parallelism
//              runs inside the same pool, nesting-safe)
//            → factorization cache consulted (serve/factor_cache.hpp):
//              full hit → cached const setup; symbolic hit → partition
//              adopted, factor() redone; miss → full setup
//            → one solve_multi over the coalesced right-hand sides
//            → per-request responses through std::future.
//
// Degradation ladder (no request ever takes the service down):
//   1. hybrid solve with a cached/fresh setup            → Ok
//   2. setup threw (singular subdomain LU, singular S̃) → plain
//      unpreconditioned GMRES/BiCGSTAB on A              → Degraded
//   3. hybrid solve did not converge                     → same fallback;
//      fallback converged → Degraded, else               → Failed
//   4. queue deadline exceeded before dispatch           → Timeout
//   5. queue full / service stopping                     → Rejected
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "serve/adapt.hpp"
#include "serve/batcher.hpp"
#include "serve/factor_cache.hpp"

namespace pdslin::serve {

struct ServiceConfig {
  /// Bounded queue depth; submits beyond it are Rejected (backpressure).
  std::size_t queue_capacity = 256;
  /// Concurrent batches in flight on the shared pool.
  unsigned workers = 2;
  BatcherConfig batcher;
  FactorCacheConfig cache;
  /// Self-tuning S̃ drop tolerance (serve/adapt.hpp, docs/SERVE.md). Off by
  /// default; when enabled, observed Krylov iteration counts nudge σ per
  /// matrix class within [sigma_min, sigma_max] and stale cache entries are
  /// rebuilt at the tuned σ (replacing, never duplicating, their entry).
  AdaptConfig adapt;
  /// Ablation switches (bench/serve measures both off vs. both on).
  bool enable_cache = true;
  bool enable_batching = true;
};

struct ServiceStats {
  long long accepted = 0;
  long long rejected = 0;
  long long completed = 0;  // responded with any terminal status
  long long ok = 0;
  long long degraded = 0;
  long long failed = 0;
  long long timeouts = 0;
  long long batches = 0;
  long long batched_requests = 0;  // requests that travelled in batches
  long long batched_nrhs = 0;      // summed batch widths
  long long setups_built = 0;      // cold + symbolic-reuse builds
  [[nodiscard]] double mean_batch_width() const {
    return batches > 0 ? static_cast<double>(batched_nrhs) / batches : 0.0;
  }
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
  /// Rejected immediately when the queue is full or the service is
  /// stopping, with Timeout/Degraded/Failed per the ladder otherwise.
  std::future<SolveResponse> submit(SolveRequest req);

  /// submit() + wait.
  SolveResponse solve(SolveRequest req);

  /// Deterministic drain: submits after this call (even from other threads
  /// already racing it) are Rejected, every request accepted before it is
  /// executed to a terminal status, and stop() returns only once all of
  /// them have been answered. Safe to call from any number of threads
  /// concurrently — one caller drains, the rest block until it is done.
  /// The destructor calls it.
  void stop();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] FactorCache& cache() { return cache_; }
  [[nodiscard]] AdaptiveDropController& adapt() { return adapt_; }
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }

 private:
  void dispatch_loop();
  void execute_batch(Batch& batch);
  /// Plain unpreconditioned Krylov on A — ladder steps 2/3.
  SolveResponse fallback_solve(const SolveRequest& req) const;
  void respond(PendingRequest& pr, SolveResponse&& resp);

  ServiceConfig cfg_;
  FactorCache cache_;
  AdaptiveDropController adapt_;

  mutable std::mutex mu_;
  std::condition_variable cv_queue_;  // dispatcher: work available / stopping
  std::condition_variable cv_slot_;   // dispatcher: worker slot free; stop(): drained
  std::deque<PendingRequest> queue_;
  unsigned active_batches_ = 0;
  bool stopping_ = false;
  bool joined_ = false;
  ServiceStats stats_;

  std::thread dispatcher_;
};

}  // namespace pdslin::serve
