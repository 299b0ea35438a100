// Multilevel hypergraph coarsening: heavy-connectivity matching and
// contraction with identical-net merging.
#pragma once

#include "hypergraph/hypergraph.hpp"

namespace pdslin {

struct HgCoarsening {
  Hypergraph coarse;
  std::vector<index_t> map;  // fine vertex → coarse vertex
};

/// Deterministic heavy-connectivity matching: each unmatched vertex pairs
/// with the unmatched vertex sharing the largest total net cost, in bounded
/// rounds of a two-pass claim/commit protocol. Pass 1 runs
/// vertex-parallel (parallel_ranges over the shared pool, at most its size
/// ranges whatever `threads` asks for) — every unmatched
/// vertex proposes its best-connected unmatched partner, ties broken by a
/// hashed vertex key; pass 2 commits mutual proposals. Each pass is a
/// pure function of the hypergraph and the previous round's matched set, so
/// the result is identical for any `threads`, including 1. match[v] =
/// partner (v itself if unmatched).
std::vector<index_t> heavy_connectivity_matching_det(const Hypergraph& h,
                                                     unsigned threads);

/// Contract matched pairs: vertex weights sum per constraint; pins are
/// deduplicated; single-pin nets are dropped; identical nets are merged with
/// summed costs (crucial for multilevel speed).
HgCoarsening contract(const Hypergraph& h, const std::vector<index_t>& match);

}  // namespace pdslin
