#include "sparse/ops.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pdslin {

void spmv(const CsrMatrix& a, std::span<const value_t> x, std::span<value_t> y) {
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(a.cols));
  PDSLIN_CHECK(y.size() == static_cast<std::size_t>(a.rows));
  PDSLIN_CHECK(a.has_values() || a.nnz() == 0);
  for (index_t i = 0; i < a.rows; ++i) {
    value_t sum = 0.0;
    for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      sum += a.values[p] * x[a.col_idx[p]];
    }
    y[i] = sum;
  }
}

void spmv_add(const CsrMatrix& a, std::span<const value_t> x,
              std::span<value_t> y, value_t alpha) {
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(a.cols));
  PDSLIN_CHECK(y.size() == static_cast<std::size_t>(a.rows));
  PDSLIN_CHECK(a.has_values() || a.nnz() == 0);
  for (index_t i = 0; i < a.rows; ++i) {
    value_t sum = 0.0;
    for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      sum += a.values[p] * x[a.col_idx[p]];
    }
    y[i] += alpha * sum;
  }
}

value_t norm2(std::span<const value_t> x) {
  value_t s = 0.0;
  for (value_t v : x) s += v * v;
  return std::sqrt(s);
}

value_t dot(std::span<const value_t> x, std::span<const value_t> y) {
  PDSLIN_CHECK(x.size() == y.size());
  value_t s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

void axpy(value_t alpha, std::span<const value_t> x, std::span<value_t> y) {
  PDSLIN_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

value_t residual_norm(const CsrMatrix& a, std::span<const value_t> x,
                      std::span<const value_t> b) {
  std::vector<value_t> r(b.begin(), b.end());
  spmv_add(a, x, r, -1.0);
  return norm2(r);
}

CsrMatrix extract(const CsrMatrix& a, std::span<const index_t> rows,
                  std::span<const index_t> cols) {
  // Map global column index → local, or -1 if not selected.
  std::vector<index_t> colmap(a.cols, -1);
  for (std::size_t j = 0; j < cols.size(); ++j) {
    PDSLIN_CHECK(cols[j] >= 0 && cols[j] < a.cols);
    colmap[cols[j]] = static_cast<index_t>(j);
  }
  CsrMatrix b(static_cast<index_t>(rows.size()), static_cast<index_t>(cols.size()));
  const bool has_vals = a.has_values();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const index_t gi = rows[i];
    PDSLIN_CHECK(gi >= 0 && gi < a.rows);
    for (index_t p = a.row_ptr[gi]; p < a.row_ptr[gi + 1]; ++p) {
      const index_t lj = colmap[a.col_idx[p]];
      if (lj < 0) continue;
      b.col_idx.push_back(lj);
      if (has_vals) b.values.push_back(a.values[p]);
    }
    b.row_ptr[i + 1] = static_cast<index_t>(b.col_idx.size());
  }
  b.sort_rows();
  return b;
}

std::vector<index_t> nonzero_columns(const CsrMatrix& a) {
  std::vector<bool> seen(a.cols, false);
  for (index_t c : a.col_idx) seen[c] = true;
  std::vector<index_t> out;
  for (index_t j = 0; j < a.cols; ++j) {
    if (seen[j]) out.push_back(j);
  }
  return out;
}

}  // namespace pdslin
