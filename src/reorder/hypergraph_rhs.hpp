// RHS reordering via hypergraph partitioning (paper §IV-B).
//
// The columns of the solution block G (whose pattern comes from a symbolic
// triangular solve) are the vertices of a row-net hypergraph; partitioning
// them into parts of exactly B columns with the connectivity-1 objective
// minimizes the padded zeros of the blocked solve — the paper shows
// cost(Π_m) = con1·B + const (Eq. (15)).
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"

namespace pdslin {

struct HypergraphRhsOptions {
  index_t block_size = 60;
  /// Quasi-dense threshold τ for dropping dense rows before partitioning
  /// (§V-B-c). Values > 1 disable the filter.
  double quasi_dense_tau = 2.0;
  std::uint64_t seed = 1;
};

struct HypergraphRhsResult {
  /// Column order: order[k] = original column of G placed k-th. Parts of B
  /// consecutive columns; leftover columns (m mod B) sit at the end, as in
  /// the paper.
  std::vector<index_t> col_order;
  index_t removed_dense_rows = 0;
  index_t removed_empty_rows = 0;
  double partition_seconds = 0.0;
};

/// `g_patterns[j]` is the fill pattern (sorted row indices) of column j of G,
/// over a matrix with `num_rows` rows.
HypergraphRhsResult hypergraph_rhs_ordering(
    const std::vector<std::vector<index_t>>& g_patterns, index_t num_rows,
    const HypergraphRhsOptions& opt);

}  // namespace pdslin
