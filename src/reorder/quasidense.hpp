// Quasi-dense row filtering for the RHS-reordering hypergraph (paper §V-B-c).
//
// Rows of the solution-vector pattern G that are empty carry no information,
// and rows denser than a threshold τ connect almost every column — both
// inflate hypergraph partitioning time without improving the partition.
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace pdslin {

struct QuasiDenseFilter {
  /// The row-net hypergraph the partition engine takes: row j lists the
  /// kept rows of G that column j touches (its nets), each numbered by its
  /// position in kept_rows, ascending.
  CsrMatrix vertex_nets;
  index_t removed_dense = 0;
  index_t removed_empty = 0;
  /// kept_rows[r] = original row index of net r.
  std::vector<index_t> kept_rows;
};

/// Remove the rows of G (num_rows × col_patterns.size(), given column by
/// column as sorted row patterns; rows become hypergraph nets) whose density
/// nnz(row)/cols ≥ tau, and the empty rows. tau > 1 disables the dense
/// filter (only empties are dropped).
QuasiDenseFilter remove_quasi_dense_rows(
    std::span<const std::vector<index_t>> col_patterns, index_t num_rows,
    double tau);

}  // namespace pdslin
