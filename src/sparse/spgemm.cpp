#include "sparse/spgemm.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sparse/convert.hpp"
#include "util/error.hpp"

namespace pdslin {

namespace {

// One output row's columns of the Gustavson product, unsorted, into
// cols_in_row, and their sums into accum. mark uses the row index as its
// stamp: rows are processed once each, so stamps never collide.
void gemm_row(const CsrMatrix& a, const CsrMatrix& b, index_t i,
              std::vector<value_t>& accum, std::vector<index_t>& mark,
              std::vector<index_t>& cols_in_row) {
  cols_in_row.clear();
  for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
    const index_t k = a.col_idx[p];
    const value_t av = a.values[p];
    for (index_t q = b.row_ptr[k]; q < b.row_ptr[k + 1]; ++q) {
      const index_t j = b.col_idx[q];
      if (mark[j] != i) {
        mark[j] = i;
        accum[j] = 0.0;
        cols_in_row.push_back(j);
      }
      accum[j] += av * b.values[q];
    }
  }
}

void pattern_row(const CsrMatrix& a, const CsrMatrix& b, index_t i,
                 std::vector<index_t>& mark,
                 std::vector<index_t>& cols_in_row) {
  cols_in_row.clear();
  for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
    const index_t k = a.col_idx[p];
    for (index_t q = b.row_ptr[k]; q < b.row_ptr[k + 1]; ++q) {
      const index_t j = b.col_idx[q];
      if (mark[j] != i) {
        mark[j] = i;
        cols_in_row.push_back(j);
      }
    }
  }
}

// Multiply-add count of the Gustavson product: Σ_i Σ_{k ∈ row i of A}
// nnz(row k of B). One O(nnz(A)) pass, kept out of the inner kernels.
long long gemm_flops(const CsrMatrix& a, const CsrMatrix& b) {
  long long flops = 0;
  for (index_t k : a.col_idx) flops += b.row_nnz(k);
  return flops;
}

}  // namespace

CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b) {
  PDSLIN_CHECK_MSG(a.cols == b.rows, "spgemm dimension mismatch");
  PDSLIN_CHECK_MSG((a.has_values() || a.nnz() == 0) &&
                       (b.has_values() || b.nnz() == 0),
                   "numeric spgemm requires values; use spgemm_pattern");
  CsrMatrix c(a.rows, b.cols);
  if (a.nnz() == 0 || b.nnz() == 0) return c;  // empty product
  PDSLIN_SPAN("spgemm");
  static obs::Counter& flops = obs::counter("spgemm.flops");
  flops.add(gemm_flops(a, b));

  // Gustavson: sparse accumulator (SPA) per output row.
  std::vector<value_t> accum(b.cols, 0.0);
  std::vector<index_t> mark(b.cols, -1);
  std::vector<index_t> cols_in_row;
  for (index_t i = 0; i < a.rows; ++i) {
    gemm_row(a, b, i, accum, mark, cols_in_row);
    std::sort(cols_in_row.begin(), cols_in_row.end());
    for (index_t j : cols_in_row) {
      c.col_idx.push_back(j);
      c.values.push_back(accum[j]);
    }
    c.row_ptr[i + 1] = static_cast<index_t>(c.col_idx.size());
  }
  return c;
}

CsrMatrix spgemm_pattern(const CsrMatrix& a, const CsrMatrix& b) {
  PDSLIN_CHECK_MSG(a.cols == b.rows, "spgemm dimension mismatch");
  CsrMatrix c(a.rows, b.cols);
  std::vector<index_t> mark(b.cols, -1);
  std::vector<index_t> cols_in_row;
  for (index_t i = 0; i < a.rows; ++i) {
    pattern_row(a, b, i, mark, cols_in_row);
    std::sort(cols_in_row.begin(), cols_in_row.end());
    c.col_idx.insert(c.col_idx.end(), cols_in_row.begin(), cols_in_row.end());
    c.row_ptr[i + 1] = static_cast<index_t>(c.col_idx.size());
  }
  return c;
}

CsrMatrix ata_pattern(const CsrMatrix& a) {
  const CsrMatrix at = transpose(a);
  return spgemm_pattern(at, a);
}

}  // namespace pdslin
