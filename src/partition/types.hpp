// Shared types of the partitioning engine (src/partition): engine selection,
// the quality-vs-latency budget dial, and per-run statistics.
//
// This header is dependency-free so SolverOptions can embed the knobs
// without pulling the engine (and its graph/hypergraph dependencies) into
// every translation unit that configures a solver.
#pragma once

#include <string>
#include <string_view>

namespace pdslin::partition {

/// Which partitioning engine the cold-start path runs.
enum class Engine {
  /// Multilevel with budget-driven degradation to the geometric fallback —
  /// the default: full quality when the budget allows, bounded latency when
  /// it does not.
  Multilevel,
  /// Geometric/streaming fallback for every subtree: recursive coordinate
  /// bisection when coordinates exist, a streaming weighted index split
  /// otherwise. O(n log n), no refinement.
  Geometric,
};

const char* to_string(Engine e);
/// Parse the to_string() name ("multilevel", "geometric");
/// returns false on unknown names.
bool engine_from_string(std::string_view name, Engine& out);

/// Value-aware partitioning (--partition-values): weight hyperedges/graph
/// edges by |a_ij| magnitude instead of treating every connection as cost 1
/// (Vecharynski–Saad–Sosonkina). Weights are small *integers* so every
/// matching-score / FM-gain / balance comparison stays exact and the
/// bitwise parallel==serial contract is untouched.
enum class ValueMode {
  /// Pattern-only (the default): every net/edge costs 1.
  Off,
  /// Linear buckets: |a_ij| / max|a| quantized onto 1..kValueWeightMax.
  /// Resolves magnitude ratios up to ~kValueWeightMax; tiny entries all
  /// land in bucket 1.
  Abs,
  /// Logarithmic buckets via the binary exponent (ilogb): one weight step
  /// per factor-of-2 band below max|a|, clamped to kValueWeightMax bands.
  /// Robust across the extreme dynamic ranges of the adversarial families.
  LogAbs,
};

/// Largest integer weight a bucketed |a_ij| can take (smallest is 1, so a
/// zero/tiny entry still keeps its structural connection). Small enough
/// that weight sums stay far from index_t saturation on sane inputs.
inline constexpr int kValueWeightMax = 32;

const char* to_string(ValueMode m);
/// Parse the to_string() name ("off", "abs", "logabs"); returns false on
/// unknown names.
bool value_mode_from_string(std::string_view name, ValueMode& out);

/// Bucket one magnitude into an integer weight in [1, kValueWeightMax]
/// relative to the reference magnitude `maxabs` (the maximum over the
/// weighting scope). Non-finite / non-positive inputs weigh 1 — a zero
/// entry still keeps its structural connection. Exact integer result from
/// exact double comparisons, so identical on every thread count.
int value_weight(double absval, double maxabs, ValueMode m);

/// The quality-vs-latency dial (--partition-budget-ms).
struct Budget {
  /// Wall-clock budget in milliseconds for the whole partition phase.
  ///   > 0 — monitored at subtree granularity (and between coarsening/FM
  ///         steps inside one bisection): once elapsed time crosses the
  ///         budget, remaining unprotected subtrees degrade to the
  ///         geometric/streaming fallback. Time-dependent by design, so a
  ///         positive budget is the one knob exempt from the bitwise
  ///         determinism contract.
  ///   == 0 — unlimited (the default): never degrades, fully deterministic.
  ///   < 0  — exhausted on entry: every unprotected subtree takes the
  ///          fallback. Deterministic (no clock reads), which is what the
  ///          fuzz harness and the determinism tests pin.
  double max_ms = 0.0;
  /// Fraction of the top bisection levels protected from degradation:
  /// protected_depth = ceil(min_quality · log2(num_parts)). 0 — everything
  /// may degrade; 1 — nothing does (the budget only stops refinement inside
  /// bisections). Depth-based so degradation decisions never depend on
  /// cross-subtree execution order.
  double min_quality = 0.0;
};

/// What the engine did and how the result measures up.
struct Stats {
  long long multilevel_subtrees = 0;  // bisection nodes via the full path
  long long fallback_subtrees = 0;    // nodes degraded to geometric/streaming
  bool budget_exhausted = false;
  double elapsed_ms = 0.0;
  long long separator_size = 0;
  /// max/min interior part size over the induced unknown partition
  /// (1e30 when some part is empty).
  double balance_ratio = 0.0;

  /// "multilevel", "geometric", or "hybrid" (budget degraded part of the
  /// tree) — recorded per run in partition.* metrics and the RunReport.
  [[nodiscard]] const char* engine_label() const;
};

}  // namespace pdslin::partition
