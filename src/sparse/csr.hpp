// Compressed sparse row / column matrix types.
//
// These are deliberately open structs in the tradition of HPC sparse kernels:
// the compressed arrays are the public API, and every kernel in src/ operates
// on them directly. validate() checks the structural invariants; kernels that
// construct matrices call it in debug builds.
//
// A matrix may be pattern-only (values.empty()), which the symbolic kernels
// (partitioning models, symbolic factorization, reach computations) use to
// avoid carrying numerical payloads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/types.hpp"

namespace pdslin {

struct CsrMatrix {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<index_t> row_ptr;   // size rows+1
  std::vector<index_t> col_idx;   // size nnz
  std::vector<value_t> values;    // size nnz, or empty for pattern-only

  CsrMatrix() = default;
  CsrMatrix(index_t r, index_t c) : rows(r), cols(c), row_ptr(r + 1, 0) {}

  [[nodiscard]] index_t nnz() const { return static_cast<index_t>(col_idx.size()); }
  [[nodiscard]] bool has_values() const { return !values.empty(); }
  [[nodiscard]] index_t row_nnz(index_t i) const { return row_ptr[i + 1] - row_ptr[i]; }

  [[nodiscard]] std::span<const index_t> row_cols(index_t i) const {
    return {col_idx.data() + row_ptr[i], static_cast<std::size_t>(row_nnz(i))};
  }
  [[nodiscard]] std::span<const value_t> row_vals(index_t i) const {
    return {values.data() + row_ptr[i], static_cast<std::size_t>(row_nnz(i))};
  }

  /// Throws pdslin::Error if the structural invariants are violated
  /// (monotone row_ptr, in-range column indices, consistent array sizes).
  void validate() const;

  /// True if column indices are sorted ascending within every row.
  [[nodiscard]] bool is_sorted() const;

  /// Sort column indices (and values) ascending within each row.
  void sort_rows();
};

struct CscMatrix {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<index_t> col_ptr;   // size cols+1
  std::vector<index_t> row_idx;   // size nnz
  std::vector<value_t> values;    // size nnz, or empty for pattern-only

  CscMatrix() = default;
  CscMatrix(index_t r, index_t c) : rows(r), cols(c), col_ptr(c + 1, 0) {}

  [[nodiscard]] index_t nnz() const { return static_cast<index_t>(row_idx.size()); }
  [[nodiscard]] bool has_values() const { return !values.empty(); }
  [[nodiscard]] index_t col_nnz(index_t j) const { return col_ptr[j + 1] - col_ptr[j]; }

  [[nodiscard]] std::span<const index_t> col_rows(index_t j) const {
    return {row_idx.data() + col_ptr[j], static_cast<std::size_t>(col_nnz(j))};
  }
  [[nodiscard]] std::span<const value_t> col_vals(index_t j) const {
    return {values.data() + col_ptr[j], static_cast<std::size_t>(col_nnz(j))};
  }

  void validate() const;
  [[nodiscard]] bool is_sorted() const;
  void sort_cols();
};

/// Hash of (rows, cols, row_ptr, col_idx) — the sparsity pattern, values
/// ignored (util/hash.hpp). The structure half of serve::fingerprint_of.
std::uint64_t pattern_hash(const CsrMatrix& m);

}  // namespace pdslin
