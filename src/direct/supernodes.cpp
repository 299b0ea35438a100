#include "direct/supernodes.hpp"

#include "util/error.hpp"

namespace pdslin {

namespace {

Supernodes from_breaks(index_t n, const std::vector<char>& new_snode) {
  Supernodes s;
  s.of_column.resize(n);
  for (index_t j = 0; j < n; ++j) {
    if (j == 0 || new_snode[j]) s.start.push_back(j);
    s.of_column[j] = static_cast<index_t>(s.start.size()) - 1;
  }
  s.start.push_back(n);
  return s;
}

}  // namespace

Supernodes relaxed_supernodes(const std::vector<index_t>& parent,
                              const std::vector<index_t>& col_counts,
                              index_t max_width, double relax) {
  const index_t n = static_cast<index_t>(parent.size());
  PDSLIN_CHECK(col_counts.size() == parent.size());
  if (n == 0) return from_breaks(0, {});

  // A panel [c0, j] is an e-tree chain, so every member's below-diagonal
  // rows (minus the in-panel columns) are contained in the last column's:
  // the dense lower panel has (j − c0 + 1) + col_counts[j] − 1 rows per
  // column minus the triangle offset. Padding = dense cells − true entries.
  std::vector<char> new_snode(n, 0);
  index_t c0 = 0;
  long long entries = col_counts[0];  // true factor entries of current panel
  for (index_t j = 1; j < n; ++j) {
    const index_t width = j - c0;  // width if j joins (minus one)
    bool merge = parent[j - 1] == j && (max_width == 0 || width < max_width);
    if (merge) {
      // Dense lower cells with j as the (new) last column: column i of the
      // panel spans rows [i, j] plus the below-rows of column j.
      const long long below = col_counts[j] - 1;
      long long cells = 0;
      for (index_t i = c0; i <= j; ++i) cells += (j - i + 1) + below;
      const long long pad = cells - (entries + col_counts[j]);
      merge = static_cast<double>(pad) <=
              relax * static_cast<double>(entries + col_counts[j]);
    }
    if (merge) {
      entries += col_counts[j];
    } else {
      new_snode[j] = 1;
      c0 = j;
      entries = col_counts[j];
    }
  }
  return from_breaks(n, new_snode);
}

}  // namespace pdslin
