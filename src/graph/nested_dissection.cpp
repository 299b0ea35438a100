#include "graph/nested_dissection.hpp"

namespace pdslin {

Graph induced_subgraph(const Graph& g, const std::vector<index_t>& verts,
                       std::vector<index_t>& local_of) {
  Graph sub;
  sub.n = static_cast<index_t>(verts.size());
  for (std::size_t i = 0; i < verts.size(); ++i) {
    local_of[verts[i]] = static_cast<index_t>(i);
  }
  sub.adj_ptr.assign(sub.n + 1, 0);
  sub.vwgt.resize(sub.n);
  for (index_t i = 0; i < sub.n; ++i) {
    const index_t v = verts[i];
    sub.vwgt[i] = g.vwgt[v];
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      const index_t lu = local_of[g.adj[p]];
      if (lu >= 0) ++sub.adj_ptr[i + 1];
    }
  }
  for (index_t i = 0; i < sub.n; ++i) sub.adj_ptr[i + 1] += sub.adj_ptr[i];
  sub.adj.resize(sub.adj_ptr[sub.n]);
  sub.ewgt.resize(sub.adj.size());
  std::vector<index_t> next(sub.adj_ptr.begin(), sub.adj_ptr.end() - 1);
  for (index_t i = 0; i < sub.n; ++i) {
    const index_t v = verts[i];
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      const index_t lu = local_of[g.adj[p]];
      if (lu >= 0) {
        sub.adj[next[i]] = lu;
        sub.ewgt[next[i]] = g.ewgt[p];
        ++next[i];
      }
    }
  }
  return sub;
}

bool is_valid_dissection(const Graph& g, const DissectionResult& r) {
  for (index_t v = 0; v < g.n; ++v) {
    if (r.part[v] == DissectionResult::kSeparator) continue;
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      const index_t u = g.adj[p];
      if (r.part[u] != DissectionResult::kSeparator && r.part[u] != r.part[v]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace pdslin
