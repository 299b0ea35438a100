// Nested graph dissection (NGD) — the paper's baseline partitioner
// (the role PT-Scotch/ParMETIS play for PDSLin, §III). The recursion runs in
// the partition engine (partition::ngd_engine); this header holds its
// options, its result type and the graph helpers it shares.
//
// The input graph is recursively bisected by vertex separators until k
// subdomains remain. Each leaf is a subdomain; all separator vertices are
// aggregated into the interface block, yielding the doubly-bordered block
// diagonal form (paper Eq. (1)). As in standard NGD, balance is enforced
// locally at each bisection — the global imbalance this leaves behind is
// exactly what the paper's RHB algorithm targets.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace pdslin {

struct NgdOptions {
  index_t num_parts = 8;       // must be a power of two
  double epsilon = 0.05;       // per-bisection balance tolerance
  std::uint64_t seed = 1;
};

/// Result of a k-way dissection: part[v] in [0, k) for subdomain vertices,
/// kSeparator for vertices aggregated into the interface.
struct DissectionResult {
  static constexpr index_t kSeparator = -1;
  std::vector<index_t> part;
  index_t num_parts = 0;
  index_t separator_size = 0;
  /// Separator vertices in nested-dissection elimination order (deepest
  /// bisection levels first, the root separator last) — the "natural"
  /// ordering of the paper's §V-B experiments. Empty when the partitioner
  /// does not define one (e.g. RHB).
  std::vector<index_t> separator_order;
};

/// Induced subgraph on the vertex list `verts`. `local_of` is caller-owned
/// scratch of size g.n, initialized to -1; on return it maps each vertex in
/// `verts` to its local index (the caller resets those entries before
/// reuse).
Graph induced_subgraph(const Graph& g, const std::vector<index_t>& verts,
                       std::vector<index_t>& local_of);

/// Validate the dissection: every edge between two different subdomains must
/// pass through the separator. Used by tests.
bool is_valid_dissection(const Graph& g, const DissectionResult& r);

}  // namespace pdslin
