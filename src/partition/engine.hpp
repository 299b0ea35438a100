// Parallel partitioning engine: the multilevel recursions behind
// SchurSolver::setup.
//
// The engine orchestrates the existing src/graph + src/hypergraph kernels:
//   * parallel recursive bisection — after each split the two subtrees are
//     independent tasks on the shared help-first pool; every bisection seed
//     derives from the (part-range, level) position via node_seed, so the
//     result is bitwise identical at any thread count;
//   * parallel deterministic coarsening — the two-pass claim/commit
//     heavy-connectivity matching (hypergraph/coarsen.hpp).
// The result is a pure function of the input and the options.
#pragma once

#include <span>
#include <vector>

#include "core/rhb.hpp"
#include "graph/nested_dissection.hpp"
#include "partition/types.hpp"
#include "sparse/csr.hpp"

namespace pdslin::partition {

struct EngineOptions {
  /// Concurrent subtree tasks (the spawn budget of the recursion). The
  /// partition is bitwise identical for any value.
  unsigned threads = 1;
  /// Value-aware RHB (--partition-values): per-column-of-M integer weight in
  /// [1, kValueWeightMax], bucketed from |a_ij| magnitudes by the caller
  /// (value_weight in partition/types.hpp). Empty → pattern-only, every net
  /// costs 1. The weights seed the root net costs and flow through the
  /// metric's net-inheritance (soed halving, cnet discarding), coarsening
  /// match scores, and FM gains unchanged — all integer arithmetic, so the
  /// bitwise thread-count contract is preserved. NGD consumes value weights
  /// through Graph::ewgt instead (graph/graph.hpp apply_value_weights).
  std::span<const index_t> col_value;
};

struct EngineResult {
  /// Induced partition of the unknowns (separator = kSeparator), same shape
  /// for both methods so downstream DBBD construction is agnostic.
  DissectionResult unknowns;
  /// RHB only: part of each row of M (empty for NGD).
  std::vector<index_t> row_part;
  Stats stats;
};

/// RHB through the engine: recursive hypergraph bisection of the structural
/// factor `m` (rows = elements/cliques, cols = unknowns) into any
/// opt.num_parts ≥ 1 parts, with the paper's dynamic weights, metric
/// net-inheritance and multi-start attempts. With dynamic_weights = false it
/// is the plain static-weight k-way partitioner of the rows' column-net
/// hypergraph (the §IV RHS reordering). The unknown partition is induced
/// per Eq. (12), so the result is always a valid DBBD input.
EngineResult rhb_engine(const CsrMatrix& m, const RhbOptions& opt,
                        const EngineOptions& eng);

/// NGD through the engine: parallel nested dissection of `g` with
/// position-seeded multilevel graph bisections; a vertex separator is
/// extracted per level, so is_valid_dissection holds.
EngineResult ngd_engine(const Graph& g, const NgdOptions& opt,
                        const EngineOptions& eng);

}  // namespace pdslin::partition
