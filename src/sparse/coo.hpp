// Coordinate-format sparse matrix builder.
//
// COO is the assembly format: generators and the Matrix Market reader push
// (i, j, v) triplets, then the matrix is finalized into CSR/CSC. Duplicate
// entries are summed at conversion time, matching FEM assembly semantics.
#pragma once

#include <vector>

#include "sparse/types.hpp"

namespace pdslin {

class CooMatrix {
 public:
  CooMatrix() = default;
  CooMatrix(index_t rows, index_t cols);

  /// Append one entry. Indices are 0-based; duplicates are allowed and are
  /// summed when converting to a compressed format.
  void add(index_t row, index_t col, value_t value);

  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return row_.size(); }

  [[nodiscard]] const std::vector<index_t>& row_indices() const { return row_; }
  [[nodiscard]] const std::vector<index_t>& col_indices() const { return col_; }
  [[nodiscard]] const std::vector<value_t>& values() const { return val_; }

  /// Grow the logical dimensions (entries already added must still fit).
  void resize(index_t rows, index_t cols);

  void reserve(std::size_t nnz);
  void clear();

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<index_t> row_;
  std::vector<index_t> col_;
  std::vector<value_t> val_;
};

}  // namespace pdslin
