#include "sparse/convert.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pdslin {

namespace {

// Counting-sort style compression shared by the COO converters. `major_of`
// and `minor_of` select row/col (CSR) or col/row (CSC).
template <typename MajorOf, typename MinorOf>
void compress_coo(const CooMatrix& coo, index_t major_dim,
                  MajorOf major_of, MinorOf minor_of,
                  std::vector<index_t>& ptr, std::vector<index_t>& idx,
                  std::vector<value_t>& val) {
  const std::size_t nz = coo.nnz();
  ptr.assign(static_cast<std::size_t>(major_dim) + 1, 0);
  for (std::size_t k = 0; k < nz; ++k) ++ptr[major_of(k) + 1];
  for (index_t i = 0; i < major_dim; ++i) ptr[i + 1] += ptr[i];

  idx.resize(nz);
  val.resize(nz);
  std::vector<index_t> next(ptr.begin(), ptr.end() - 1);
  for (std::size_t k = 0; k < nz; ++k) {
    const index_t slot = next[major_of(k)]++;
    idx[slot] = minor_of(k);
    val[slot] = coo.values()[k];
  }

  // Sort within each major slot, then merge duplicates in place.
  std::vector<index_t> order, tmp_idx;
  std::vector<value_t> tmp_val;
  index_t write = 0;
  index_t prev_end = 0;
  for (index_t i = 0; i < major_dim; ++i) {
    const index_t begin = prev_end;
    const index_t end = ptr[i + 1];
    prev_end = end;
    const index_t len = end - begin;
    if (len > 1) {
      order.resize(len);
      for (index_t k = 0; k < len; ++k) order[k] = k;
      std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
        return idx[begin + a] < idx[begin + b];
      });
      tmp_idx.assign(idx.begin() + begin, idx.begin() + end);
      tmp_val.assign(val.begin() + begin, val.begin() + end);
      for (index_t k = 0; k < len; ++k) {
        idx[begin + k] = tmp_idx[order[k]];
        val[begin + k] = tmp_val[order[k]];
      }
    }
    const index_t row_start = write;
    for (index_t p = begin; p < end; ++p) {
      if (write > row_start && idx[write - 1] == idx[p]) {
        val[write - 1] += val[p];
      } else {
        idx[write] = idx[p];
        val[write] = val[p];
        ++write;
      }
    }
    ptr[i + 1] = write;
  }
  idx.resize(write);
  val.resize(write);
}

}  // namespace

CsrMatrix coo_to_csr(const CooMatrix& coo) {
  CsrMatrix a(coo.rows(), coo.cols());
  compress_coo(
      coo, coo.rows(), [&](std::size_t k) { return coo.row_indices()[k]; },
      [&](std::size_t k) { return coo.col_indices()[k]; }, a.row_ptr, a.col_idx,
      a.values);
  return a;
}

CscMatrix coo_to_csc(const CooMatrix& coo) {
  CscMatrix a(coo.rows(), coo.cols());
  compress_coo(
      coo, coo.cols(), [&](std::size_t k) { return coo.col_indices()[k]; },
      [&](std::size_t k) { return coo.row_indices()[k]; }, a.col_ptr, a.row_idx,
      a.values);
  return a;
}

namespace {

// Transpose the compressed arrays: input ptr/idx over `major` slots with
// `minor` the other dimension; output arrays indexed by minor. Output is
// sorted by construction (stable counting pass over sorted-major input order).
void transpose_arrays(index_t major, index_t minor,
                      const std::vector<index_t>& ptr,
                      const std::vector<index_t>& idx,
                      const std::vector<value_t>& val,
                      std::vector<index_t>& out_ptr,
                      std::vector<index_t>& out_idx,
                      std::vector<value_t>& out_val) {
  const std::size_t nz = idx.size();
  out_ptr.assign(static_cast<std::size_t>(minor) + 1, 0);
  for (index_t v : idx) ++out_ptr[v + 1];
  for (index_t j = 0; j < minor; ++j) out_ptr[j + 1] += out_ptr[j];
  out_idx.resize(nz);
  const bool has_vals = !val.empty();
  out_val.resize(has_vals ? nz : 0);
  std::vector<index_t> next(out_ptr.begin(), out_ptr.end() - 1);
  for (index_t i = 0; i < major; ++i) {
    for (index_t p = ptr[i]; p < ptr[i + 1]; ++p) {
      const index_t slot = next[idx[p]]++;
      out_idx[slot] = i;
      if (has_vals) out_val[slot] = val[p];
    }
  }
}

}  // namespace

CscMatrix csr_to_csc(const CsrMatrix& a) {
  CscMatrix b(a.rows, a.cols);
  transpose_arrays(a.rows, a.cols, a.row_ptr, a.col_idx, a.values, b.col_ptr,
                   b.row_idx, b.values);
  return b;
}

CsrMatrix csc_to_csr(const CscMatrix& a) {
  CsrMatrix b(a.rows, a.cols);
  transpose_arrays(a.cols, a.rows, a.col_ptr, a.row_idx, a.values, b.row_ptr,
                   b.col_idx, b.values);
  return b;
}

CsrMatrix transpose(const CsrMatrix& a) {
  CsrMatrix b(a.cols, a.rows);
  transpose_arrays(a.rows, a.cols, a.row_ptr, a.col_idx, a.values, b.row_ptr,
                   b.col_idx, b.values);
  return b;
}

CscMatrix transpose(const CscMatrix& a) {
  CscMatrix b(a.cols, a.rows);
  transpose_arrays(a.cols, a.rows, a.col_ptr, a.row_idx, a.values, b.col_ptr,
                   b.row_idx, b.values);
  return b;
}

CsrMatrix pattern_of(const CsrMatrix& a) {
  CsrMatrix b = a;
  b.values.clear();
  return b;
}

}  // namespace pdslin
