#include "direct/etree.hpp"

#include "util/error.hpp"

namespace pdslin {

std::vector<index_t> elimination_tree(const CsrMatrix& a) {
  PDSLIN_CHECK(a.rows == a.cols);
  const index_t n = a.rows;
  std::vector<index_t> parent(n, -1);
  std::vector<index_t> ancestor(n, -1);  // path-compressed ancestors

  for (index_t i = 0; i < n; ++i) {
    for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      index_t k = a.col_idx[p];
      if (k >= i) continue;  // use the lower triangle
      // Walk from k to the root of its current subtree, compressing.
      while (k != -1 && k < i) {
        const index_t next = ancestor[k];
        ancestor[k] = i;
        if (next == -1) {
          parent[k] = i;
          break;
        }
        k = next;
      }
    }
  }
  return parent;
}

std::vector<index_t> tree_postorder(const std::vector<index_t>& parent) {
  const index_t n = static_cast<index_t>(parent.size());
  // Build child lists (children in ascending order by construction).
  std::vector<index_t> head(n, -1), next(n, -1);
  for (index_t i = n - 1; i >= 0; --i) {
    if (parent[i] >= 0) {
      next[i] = head[parent[i]];
      head[parent[i]] = i;
    }
  }
  std::vector<index_t> post;
  post.reserve(n);
  std::vector<index_t> stack;
  for (index_t root = 0; root < n; ++root) {
    if (parent[root] >= 0) continue;
    // Iterative DFS emitting nodes in postorder.
    stack.push_back(root);
    while (!stack.empty()) {
      const index_t v = stack.back();
      if (head[v] != -1) {
        const index_t child = head[v];
        head[v] = next[child];  // consume the child edge
        stack.push_back(child);
      } else {
        post.push_back(v);
        stack.pop_back();
      }
    }
  }
  return post;
}

bool is_valid_etree(const std::vector<index_t>& parent) {
  const index_t n = static_cast<index_t>(parent.size());
  for (index_t i = 0; i < n; ++i) {
    if (parent[i] != -1 && (parent[i] <= i || parent[i] >= n)) return false;
  }
  return true;
}

}  // namespace pdslin
