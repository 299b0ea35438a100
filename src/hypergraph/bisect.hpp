// Multilevel hypergraph bisection driver: heavy-connectivity coarsening,
// greedy/random initial partitions, FM refinement on every level.
#pragma once

#include <cstdint>
#include <functional>

#include "hypergraph/fm.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/partition_state.hpp"

namespace pdslin {

struct HgBisectOptions {
  /// Per-constraint target fraction for side 0 (defaults to 0.5 for all).
  std::vector<double> target0;
  /// Per-constraint imbalance tolerance (fraction of total weight).
  std::vector<double> epsilon;
  index_t coarsen_to = 150;
  int refine_passes = 6;
  int initial_tries = 4;
  std::uint64_t seed = 1;
  /// Pool workers for the coarsening matching. Coarsening always uses the
  /// deterministic claim/commit matching, so the bisection is bitwise
  /// identical for any value.
  unsigned matching_threads = 1;
  /// Latency-budget hook: polled between coarsening levels and before each
  /// refinement, never mid-kernel. Once it returns true the bisection
  /// finishes on the cheapest path (single initial try, no FM) — still a
  /// valid bisection, just unrefined. Empty → never stops.
  std::function<bool()> should_stop;
};

/// Bisect minimizing the weighted cut-net cost subject to the balance
/// windows. For a single bisection the con1/cnet/soed metrics coincide up to
/// net costs, so the metric distinction lives in the recursive driver.
HgBisection bisect_hypergraph(const Hypergraph& h, const HgBisectOptions& opt);

}  // namespace pdslin
