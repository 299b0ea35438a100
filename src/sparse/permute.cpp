#include "sparse/permute.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pdslin {

std::vector<index_t> invert_permutation(std::span<const index_t> perm) {
  std::vector<index_t> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    inv[perm[i]] = static_cast<index_t>(i);
  }
  return inv;
}

bool is_permutation(std::span<const index_t> perm, index_t n) {
  if (perm.size() != static_cast<std::size_t>(n)) return false;
  std::vector<bool> seen(n, false);
  for (index_t v : perm) {
    if (v < 0 || v >= n || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

CsrMatrix permute(const CsrMatrix& a, std::span<const index_t> rowperm,
                  std::span<const index_t> colperm) {
  PDSLIN_CHECK(rowperm.size() == static_cast<std::size_t>(a.rows));
  PDSLIN_CHECK(colperm.size() == static_cast<std::size_t>(a.cols));
  const std::vector<index_t> icol = invert_permutation(colperm);

  CsrMatrix b(a.rows, a.cols);
  b.col_idx.reserve(a.col_idx.size());
  const bool has_vals = a.has_values();
  if (has_vals) b.values.reserve(a.values.size());
  for (index_t i = 0; i < a.rows; ++i) {
    const index_t old_row = rowperm[i];
    for (index_t p = a.row_ptr[old_row]; p < a.row_ptr[old_row + 1]; ++p) {
      b.col_idx.push_back(icol[a.col_idx[p]]);
      if (has_vals) b.values.push_back(a.values[p]);
    }
    b.row_ptr[i + 1] = static_cast<index_t>(b.col_idx.size());
  }
  b.sort_rows();
  return b;
}

CsrMatrix permute_symmetric(const CsrMatrix& a, std::span<const index_t> perm) {
  PDSLIN_CHECK(a.rows == a.cols);
  return permute(a, perm, perm);
}

CsrMatrix permute_rows(const CsrMatrix& a, std::span<const index_t> rowperm) {
  PDSLIN_CHECK(rowperm.size() == static_cast<std::size_t>(a.rows));
  CsrMatrix b(a.rows, a.cols);
  b.col_idx.reserve(a.col_idx.size());
  const bool has_vals = a.has_values();
  if (has_vals) b.values.reserve(a.values.size());
  for (index_t i = 0; i < a.rows; ++i) {
    const index_t old_row = rowperm[i];
    for (index_t p = a.row_ptr[old_row]; p < a.row_ptr[old_row + 1]; ++p) {
      b.col_idx.push_back(a.col_idx[p]);
      if (has_vals) b.values.push_back(a.values[p]);
    }
    b.row_ptr[i + 1] = static_cast<index_t>(b.col_idx.size());
  }
  return b;
}

CsrMatrix permute_cols(const CsrMatrix& a, std::span<const index_t> colperm) {
  PDSLIN_CHECK(colperm.size() == static_cast<std::size_t>(a.cols));
  const std::vector<index_t> icol = invert_permutation(colperm);
  CsrMatrix b = a;
  for (auto& c : b.col_idx) c = icol[c];
  b.sort_rows();
  return b;
}

}  // namespace pdslin
