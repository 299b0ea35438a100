#include "reorder/hypergraph_rhs.hpp"

#include <algorithm>
#include <numeric>

#include "partition/engine.hpp"
#include "reorder/quasidense.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace pdslin {

HypergraphRhsResult hypergraph_rhs_ordering(
    const std::vector<std::vector<index_t>>& g_patterns, index_t num_rows,
    const HypergraphRhsOptions& opt) {
  PDSLIN_CHECK(opt.block_size >= 1);
  const auto m = static_cast<index_t>(g_patterns.size());
  HypergraphRhsResult res;
  if (m == 0) return res;

  const index_t b = opt.block_size;
  const index_t num_full_parts = m / b;
  if (num_full_parts <= 1) {
    // One (or less than one) full block: any order is equivalent.
    res.col_order.resize(m);
    std::iota(res.col_order.begin(), res.col_order.end(), 0);
    return res;
  }
  const index_t head = num_full_parts * b;  // columns partitioned into parts

  WallTimer timer;
  // Rows of G become hypergraph nets; only the first head columns take
  // part, as the paper prescribes.
  const QuasiDenseFilter filter = remove_quasi_dense_rows(
      std::span(g_patterns).first(static_cast<std::size_t>(head)), num_rows,
      opt.quasi_dense_tau);
  res.removed_dense_rows = filter.removed_dense;
  res.removed_empty_rows = filter.removed_empty;

  // Row-net model on the partition engine: one vertex per head column of G.
  // Static unit weights and ε = 0 aim every part at exactly B columns.
  RhbOptions popt;
  popt.num_parts = num_full_parts;
  popt.metric = CutMetric::Con1;  // Eq. (15): padded zeros ≡ con1 up to consts
  popt.dynamic_weights = false;
  popt.epsilon = 0.0;
  popt.seed = opt.seed;
  popt.coarsen_to = opt.coarsen_to;
  popt.refine_passes = opt.refine_passes;
  popt.initial_tries = opt.initial_tries;
  popt.attempts = 1;
  const std::vector<index_t> part =
      partition::rhb_engine(filter.vertex_nets, popt, {}).row_part;
  res.partition_seconds = timer.seconds();

  // Emit columns part by part. Parts may deviate from B by a vertex or two
  // (FM feasibility slack); rebalance deterministically by spilling overflow
  // into the shortfall parts so every emitted block has exactly B columns.
  std::vector<std::vector<index_t>> groups(num_full_parts);
  for (index_t j = 0; j < head; ++j) groups[part[j]].push_back(j);
  std::vector<index_t> overflow;
  for (auto& grp : groups) {
    while (static_cast<index_t>(grp.size()) > b) {
      overflow.push_back(grp.back());
      grp.pop_back();
    }
  }
  for (auto& grp : groups) {
    while (static_cast<index_t>(grp.size()) < b && !overflow.empty()) {
      grp.push_back(overflow.back());
      overflow.pop_back();
    }
  }
  res.col_order.reserve(m);
  for (const auto& grp : groups) {
    res.col_order.insert(res.col_order.end(), grp.begin(), grp.end());
  }
  // Leftover columns (m mod B) are gathered into one final part.
  for (index_t j = head; j < m; ++j) res.col_order.push_back(j);
  PDSLIN_CHECK(res.col_order.size() == static_cast<std::size_t>(m));
  return res;
}

}  // namespace pdslin
