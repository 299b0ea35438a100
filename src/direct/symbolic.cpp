#include "direct/symbolic.hpp"

#include "direct/etree.hpp"
#include "util/error.hpp"

namespace pdslin {

// Row-subtree traversal: the nonzeros of row i of L are the nodes on the
// paths from each a_ik (k < i) up the e-tree toward i. Each node is visited
// once per row thanks to the stamp.
namespace {
// Only nodes below `limit` are visited: a path climbs to ever larger
// nodes, so it ends at the first one that is not.
template <typename Visit>
void walk_row_subtree(const CsrMatrix& a, const std::vector<index_t>& parent,
                      std::vector<index_t>& stamp, index_t i, index_t limit,
                      Visit&& visit) {
  stamp[i] = i;
  for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
    index_t k = a.col_idx[p];
    if (k > i) continue;
    // The path from k must terminate at i for symmetric patterns; the
    // k != -1 guard keeps malformed (unsymmetric) inputs from crashing.
    while (k != -1 && k < limit && stamp[k] != i) {
      stamp[k] = i;
      visit(k);  // L(i, k) is structurally nonzero
      k = parent[k];
    }
  }
}
}  // namespace

SymbolicFactor symbolic_cholesky(const CsrMatrix& a) {
  PDSLIN_CHECK(a.rows == a.cols);
  const index_t n = a.rows;
  SymbolicFactor s;
  s.parent = elimination_tree(a);
  s.col_counts.assign(n, 1);  // diagonal

  std::vector<index_t> stamp(n, -1);
  for (index_t i = 0; i < n; ++i) {
    walk_row_subtree(a, s.parent, stamp, i, n,
                     [&](index_t k) { ++s.col_counts[k]; });
  }
  for (index_t j = 0; j < n; ++j) s.factor_nnz += s.col_counts[j];
  return s;
}

CscMatrix cholesky_pattern(const CsrMatrix& a, const SymbolicFactor& s,
                           index_t cols) {
  PDSLIN_CHECK(a.rows == a.cols);
  const index_t n = a.rows;
  PDSLIN_CHECK(s.parent.size() == static_cast<std::size_t>(n));
  PDSLIN_CHECK(cols >= 0 && cols <= n);

  CscMatrix l(n, cols);
  for (index_t j = 0; j < cols; ++j) {
    l.col_ptr[j + 1] = l.col_ptr[j] + s.col_counts[j];
  }
  l.row_idx.resize(l.col_ptr[cols]);
  std::vector<index_t> next(l.col_ptr.begin(), l.col_ptr.end() - 1);
  // Diagonal first in every column.
  for (index_t j = 0; j < cols; ++j) l.row_idx[next[j]++] = j;

  std::vector<index_t> stamp(n, -1);
  for (index_t i = 0; i < n; ++i) {
    walk_row_subtree(a, s.parent, stamp, i, cols,
                     [&](index_t k) { l.row_idx[next[k]++] = i; });
  }
  return l;
}

}  // namespace pdslin
