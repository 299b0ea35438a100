// Closed-loop self-tuning of the S̃ drop tolerance σ (docs/SERVE.md).
//
// The static --drop-s knob trades preconditioner cost against Krylov
// iteration count, but the right value is a property of the *matrix class*
// being served, not of the deployment. The controller observes the mean
// GMRES/BiCGSTAB iteration count of every served request and nudges σ within
// configured bounds: slow convergence → tighten (drop less, stronger LU(S̃)),
// fast convergence → relax (drop more, cheaper factors). Repeat traffic on
// one matrix class converges to its own sweet spot.
//
// Contract points (pinned by ServeAdapt.* tests):
//   * keyed by the *symbolic* setup class (pattern + options, values
//     ignored) — the same keying the factor cache uses for partition reuse —
//     so tuning survives numeric eviction and value perturbations;
//   * adaptation state is NOT part of the serve fingerprint: one matrix
//     class keeps one cache entry while its σ is re-tuned in place (the
//     entry is rebuilt at the new σ and *replaces* the old one);
//   * at any fixed σ the answers are bitwise deterministic — adaptation
//     changes *which* σ a setup is built with, never how a solve at that σ
//     behaves. SolveResponse::tuned_drop_s reports the σ actually used so
//     callers (and the differential harness) can reproduce bit-for-bit.
//
// Convergence: σ moves monotonically toward the target band; one reversal
// is allowed (a relax that overshoots the band tightens back once), after
// which the class is frozen at its sweet spot — no ping-ponging.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>

#include "serve/fingerprint.hpp"

namespace pdslin::serve {

struct AdaptConfig {
  /// Off by default: σ stays exactly the request's static --drop-s.
  bool enabled = false;
  /// Bounds σ may be tuned within. The request's static σ is the starting
  /// point, clamped into [sigma_min, sigma_max].
  double sigma_min = 1e-12;
  double sigma_max = 1e-2;
  /// Target band of mean Krylov iterations per column. Above the band the
  /// preconditioner is too weak → tighten; below it, too strong → relax.
  double target_low = 6.0;
  double target_high = 24.0;
  /// Multiplicative nudges (tighten divides, relax multiplies).
  double tighten_factor = 0.1;
  double relax_factor = 10.0;
  /// Bound on tracked matrix classes; an arbitrary member is dropped on
  /// overflow (same policy as the factor cache's partition side map).
  std::size_t max_classes = 256;
};

/// Per-class adaptation state, exported for tests and the RunReport.
struct AdaptState {
  double sigma = 0.0;           // current tuned σ
  long long observations = 0;   // requests observed
  long long tightened = 0;      // tighten nudges applied
  long long relaxed = 0;        // relax nudges applied
  bool frozen = false;          // sweet spot reached (reversal used up)
};

struct AdaptStats {
  std::size_t classes = 0;
  long long observations = 0;
  long long tightened = 0;
  long long relaxed = 0;
  long long rebuilds = 0;  // cache entries rebuilt because σ moved
};

/// Thread-safe σ controller. Lives beside the factor cache in the service;
/// its state intentionally outlives cache entries (eviction survival).
class AdaptiveDropController {
 public:
  explicit AdaptiveDropController(AdaptConfig cfg = {});

  /// σ to build (or rebuild) this class's setup with. First sight of a
  /// class seeds its state from the request's static σ, clamped into
  /// bounds. Disabled → returns static_sigma unchanged, records nothing.
  double tuned_sigma(const SetupKey& key, double static_sigma);

  /// Feed back the mean converged-column iteration count of one request.
  /// No-op when disabled or the class is unknown (e.g. dropped on
  /// overflow) — the next tuned_sigma() re-seeds it.
  void observe(const SetupKey& key, double mean_iterations, bool converged);

  /// Count one setup rebuild caused by a σ change (metrics only).
  void note_rebuild();

  [[nodiscard]] AdaptState state(const SetupKey& key) const;
  [[nodiscard]] AdaptStats stats() const;
  [[nodiscard]] const AdaptConfig& config() const { return cfg_; }

 private:
  AdaptConfig cfg_;
  mutable std::mutex mu_;
  std::map<SetupKey, AdaptState> classes_;  // keyed by key.symbolic()
  AdaptStats stats_;
};

}  // namespace pdslin::serve
