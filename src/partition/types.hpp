// Shared types of the partitioning engine (src/partition): value-aware
// weighting and per-run statistics.
//
// This header is dependency-free so SolverOptions can embed the knobs
// without pulling the engine (and its graph/hypergraph dependencies) into
// every translation unit that configures a solver.
#pragma once

#include <string_view>

namespace pdslin::partition {

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

/// What the engine did and how the result measures up.
struct Stats {
  long long multilevel_subtrees = 0;  // bisection nodes, over all attempts
  long long separator_size = 0;
  /// max/min interior part size over the induced unknown partition
  /// (1e30 when some part is empty).
  double balance_ratio = 0.0;
};

}  // namespace pdslin::partition
