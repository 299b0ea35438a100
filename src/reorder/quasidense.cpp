#include "reorder/quasidense.hpp"

#include "util/error.hpp"

namespace pdslin {

QuasiDenseFilter remove_quasi_dense_rows(
    std::span<const std::vector<index_t>> col_patterns, index_t num_rows,
    double tau) {
  PDSLIN_CHECK(tau > 0.0);
  const auto cols = static_cast<index_t>(col_patterns.size());
  // net_of[i]: first the length of row i, then its net number (-1 = removed).
  std::vector<index_t> net_of(num_rows, 0);
  for (const std::vector<index_t>& pat : col_patterns) {
    for (index_t i : pat) ++net_of[i];
  }
  QuasiDenseFilter f;
  const auto dense_cut =
      static_cast<long long>(tau * static_cast<double>(cols));
  for (index_t i = 0; i < num_rows; ++i) {
    const index_t len = net_of[i];
    net_of[i] = -1;
    if (len == 0) {
      ++f.removed_empty;
    } else if (static_cast<long long>(len) >= dense_cut) {
      ++f.removed_dense;
    } else {
      net_of[i] = static_cast<index_t>(f.kept_rows.size());
      f.kept_rows.push_back(i);
    }
  }
  CsrMatrix& v = f.vertex_nets;
  v = CsrMatrix(cols, static_cast<index_t>(f.kept_rows.size()));
  for (index_t j = 0; j < cols; ++j) {
    for (index_t i : col_patterns[j]) {
      if (net_of[i] >= 0) v.col_idx.push_back(net_of[i]);
    }
    v.row_ptr[j + 1] = static_cast<index_t>(v.col_idx.size());
  }
  return f;
}

}  // namespace pdslin
