// Request coalescing for the solve service: concurrent requests against the
// same setup key (same matrix fingerprint + setup options) are merged into
// one multi-RHS solve_multi() call, so one implicit-Schur operator sweep and
// one preconditioner application chain serves every column — the multi-RHS
// amortization of paper §IV applied across requests instead of within one.
//
// The batcher is a pure queue-surgery component: the service owns the
// mutex/condition variable and decides *when* to collect (as soon as a
// worker slot is free); take_batch() decides *what* travels together.
// Keeping it lock-free makes it unit-testable without a running service.
#pragma once

#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/schur_solver.hpp"
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
  /// Optional problem geometry (3 doubles per unknown) for the partition
  /// engine's geometric fallback; read only during a cold setup.
  std::shared_ptr<const std::vector<double>> coords;
  std::vector<value_t> b;  // n × nrhs, column-major
  index_t nrhs = 1;
  SolverOptions opt;
  /// Queue deadline in seconds; 0 = no deadline. Checked when the request
  /// is dequeued (a running solve is never preempted).
  double timeout_seconds = 0.0;
};

struct SolveResponse {
  ServeStatus status = ServeStatus::Ok;
  std::vector<value_t> x;               // n × nrhs, column-major
  std::vector<GmresResult> columns;     // per right-hand side
  bool cache_hit = false;               // full setup reuse
  bool symbolic_reuse = false;          // partition reuse, values re-factored
  int batch_width = 0;                  // total nrhs of the coalesced batch
  std::string detail;                   // degradation / failure explanation
  double queue_seconds = 0.0;
  double setup_seconds = 0.0;           // 0 on a cache hit
  double solve_seconds = 0.0;
  /// S̃ drop tolerance σ the answering setup was actually built with —
  /// equals opt.assembly.drop_s unless the adaptive controller
  /// (serve/adapt.hpp) retuned the class. 0 when no hybrid setup answered
  /// (fallback/timeout/rejected paths). Re-running a direct solve at this
  /// σ reproduces the answer bitwise (pinned by the differential harness).
  double tuned_drop_s = 0.0;
};

/// A request parked in the service queue.
struct PendingRequest {
  SolveRequest req;
  SetupKey key;
  std::promise<SolveResponse> promise;
  std::chrono::steady_clock::time_point enqueued;
};

/// Requests travelling together: all share `key`, so one cached setup and
/// one solve_multi call answers every member.
struct Batch {
  SetupKey key;
  std::vector<PendingRequest> requests;

  [[nodiscard]] index_t total_nrhs() const {
    index_t s = 0;
    for (const PendingRequest& r : requests) s += r.req.nrhs;
    return s;
  }
};

struct BatcherConfig {
  /// Ceiling on the coalesced batch width (summed nrhs over members).
  index_t max_batch_nrhs = 32;
};

/// Pop the front request and every same-key request currently queued, up to
/// cfg.max_batch_nrhs. Other-key requests keep their relative order. The
/// queue must be non-empty.
Batch take_batch(std::deque<PendingRequest>& queue, const BatcherConfig& cfg);

}  // namespace pdslin::serve
