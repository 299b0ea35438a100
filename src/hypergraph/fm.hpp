// Fiduccia–Mattheyses refinement for hypergraph bisections with
// multi-constraint balance (paper §III-C uses up to two constraints).
#pragma once

#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition_state.hpp"

namespace pdslin {

struct HgBalance {
  /// Per-constraint target fraction of total weight on side 0.
  std::vector<double> target0;
  /// Per-constraint allowed deviation as a fraction of total weight. The
  /// effective slack is max(epsilon·total, heaviest vertex) so a feasible
  /// solution always exists.
  std::vector<double> epsilon;
};

/// Per-constraint admissible weight window for side 0.
struct BalanceWindow {
  std::vector<long long> lo, hi;  // per constraint
};
BalanceWindow balance_window(const Hypergraph& h, const HgBalance& bal);

/// True if b's side-0 weights fall inside the window for every constraint.
bool is_balanced(const HgBisection& b, const BalanceWindow& w);

/// FM passes: move vertices between sides to reduce the weighted cut while
/// keeping every constraint inside its window. Returns the number of passes
/// that improved the cut.
int fm_refine(const Hypergraph& h, HgBisection& b, const BalanceWindow& w,
              int max_passes);

}  // namespace pdslin
