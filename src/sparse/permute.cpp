#include "sparse/permute.hpp"

#include "sparse/convert.hpp"
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

CscMatrix permuted_csc(const CsrMatrix& a, std::span<const index_t> rowperm,
                       std::span<const index_t> colperm) {
  PDSLIN_CHECK(rowperm.size() == static_cast<std::size_t>(a.rows));
  PDSLIN_CHECK(colperm.size() == static_cast<std::size_t>(a.cols));
  const std::vector<index_t> icol = invert_permutation(colperm);

  // B's column j is A's column colperm[j]: count A's columns, lay them out
  // in B's order, then place A's rows in B's row order. Each column then
  // holds its rows ascending, and a row's entries keep their stored order.
  CscMatrix b(a.rows, a.cols);
  std::vector<index_t> count(static_cast<std::size_t>(a.cols), 0);
  for (const index_t c : a.col_idx) ++count[c];
  for (index_t j = 0; j < a.cols; ++j) {
    b.col_ptr[j + 1] = b.col_ptr[j] + count[colperm[j]];
  }
  b.row_idx.resize(a.col_idx.size());
  const bool has_vals = a.has_values();
  if (has_vals) b.values.resize(a.values.size());
  std::vector<index_t> next(b.col_ptr.begin(), b.col_ptr.end() - 1);
  for (index_t i = 0; i < a.rows; ++i) {
    const index_t old_row = rowperm[i];
    for (index_t p = a.row_ptr[old_row]; p < a.row_ptr[old_row + 1]; ++p) {
      const index_t slot = next[icol[a.col_idx[p]]]++;
      b.row_idx[slot] = i;
      if (has_vals) b.values[slot] = a.values[p];
    }
  }
  return b;
}

CsrMatrix permute(const CsrMatrix& a, std::span<const index_t> rowperm,
                  std::span<const index_t> colperm) {
  // The second counting pass, by rows in ascending column order, leaves
  // every row sorted.
  return csc_to_csr(permuted_csc(a, rowperm, colperm));
}

CsrMatrix permute_symmetric(const CsrMatrix& a, std::span<const index_t> perm) {
  PDSLIN_CHECK(a.rows == a.cols);
  return permute(a, perm, perm);
}

}  // namespace pdslin
