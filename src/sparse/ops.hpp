// Dense-vector / sparse-matrix operations and submatrix extraction.
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace pdslin {

/// y = A·x.
void spmv(const CsrMatrix& a, std::span<const value_t> x, std::span<value_t> y);

/// y += alpha·A·x.
void spmv_add(const CsrMatrix& a, std::span<const value_t> x,
              std::span<value_t> y, value_t alpha);

/// 2-norm, dot product, axpy for dense vectors.
value_t norm2(std::span<const value_t> x);
value_t dot(std::span<const value_t> x, std::span<const value_t> y);
void axpy(value_t alpha, std::span<const value_t> x, std::span<value_t> y);

/// ||A·x - b||₂ — used everywhere in tests to validate solves.
value_t residual_norm(const CsrMatrix& a, std::span<const value_t> x,
                      std::span<const value_t> b);

/// Extract the submatrix A(rows, cols) with local (renumbered) indices.
/// `rows` and `cols` are lists of global indices; output entry (i, j) is
/// A(rows[i], cols[j]).
CsrMatrix extract(const CsrMatrix& a, std::span<const index_t> rows,
                  std::span<const index_t> cols);

/// Column indices of A that contain at least one nonzero, ascending.
std::vector<index_t> nonzero_columns(const CsrMatrix& a);

}  // namespace pdslin
