#include "core/structural_factor.hpp"

#include <algorithm>

#include "sparse/convert.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/symmetrize.hpp"
#include "util/error.hpp"

namespace pdslin {

namespace {
// The largest clique the greedy search grows.
constexpr index_t kMaxClique = 8;
}  // namespace

CsrMatrix clique_cover_factor(const CsrMatrix& a) {
  PDSLIN_CHECK(a.rows == a.cols);
  const index_t n = a.rows;
  CsrMatrix as = a;
  as.sort_rows();

  // covered[p] marks entry p of the (sorted) upper triangle as covered.
  std::vector<bool> covered(as.col_idx.size(), false);
  std::vector<index_t> mark(n, -1);  // neighbourhood stamp for clique checks
  std::vector<char> touched(n, 0);   // vertex appears in some clique

  CsrMatrix m;
  m.cols = n;
  m.row_ptr.push_back(0);
  std::vector<index_t> clique;

  auto adjacent = [&](index_t u, index_t v) {
    const auto cols = as.row_cols(u);
    return std::binary_search(cols.begin(), cols.end(), v);
  };

  for (index_t v = 0; v < n; ++v) {
    // Stamp v's neighbourhood for O(1) membership checks.
    for (index_t u : as.row_cols(v)) mark[u] = v;
    for (index_t p = as.row_ptr[v]; p < as.row_ptr[v + 1]; ++p) {
      const index_t u = as.col_idx[p];
      if (u <= v || covered[p]) continue;  // cover each upper edge once
      // Grow a clique containing edge (v, u) within N(v).
      clique.clear();
      clique.push_back(v);
      clique.push_back(u);
      for (index_t q = p + 1;
           q < as.row_ptr[v + 1] &&
           static_cast<index_t>(clique.size()) < kMaxClique;
           ++q) {
        const index_t w = as.col_idx[q];
        if (covered[q]) continue;
        bool joins = true;
        for (std::size_t c = 1; c < clique.size() && joins; ++c) {
          joins = adjacent(clique[c], w);
        }
        if (joins) clique.push_back(w);
      }
      // Mark all internal edges incident to v as covered (edges between
      // other clique members get covered when their own rows are visited,
      // via the membership re-check below).
      for (std::size_t ci = 0; ci < clique.size(); ++ci) {
        for (std::size_t cj = ci + 1; cj < clique.size(); ++cj) {
          const index_t x = std::min(clique[ci], clique[cj]);
          const index_t y = std::max(clique[ci], clique[cj]);
          const auto cols = as.row_cols(x);
          const auto it = std::lower_bound(cols.begin(), cols.end(), y);
          if (it != cols.end() && *it == y) {
            covered[as.row_ptr[x] + static_cast<index_t>(it - cols.begin())] = true;
          }
        }
      }
      std::sort(clique.begin(), clique.end());
      for (index_t member : clique) {
        m.col_idx.push_back(member);
        touched[member] = 1;
      }
      m.row_ptr.push_back(static_cast<index_t>(m.col_idx.size()));
    }
  }

  // Singleton rows for vertices in no clique (isolated unknowns) so MᵀM
  // keeps a full diagonal.
  for (index_t v = 0; v < n; ++v) {
    if (!touched[v]) {
      m.col_idx.push_back(v);
      m.row_ptr.push_back(static_cast<index_t>(m.col_idx.size()));
    }
  }
  m.rows = static_cast<index_t>(m.row_ptr.size()) - 1;
  return m;
}

FactorCheck check_structural_factor(const CsrMatrix& a, const CsrMatrix& m) {
  FactorCheck r;
  CsrMatrix prod = ata_pattern(m);
  prod.sort_rows();
  CsrMatrix as = pattern_of(a);
  as.sort_rows();

  r.covers = true;
  bool extra = false;
  for (index_t i = 0; i < a.rows && r.covers; ++i) {
    const auto pc = prod.row_cols(i);
    for (index_t j : as.row_cols(i)) {
      if (!std::binary_search(pc.begin(), pc.end(), j)) {
        r.covers = false;
        break;
      }
    }
  }
  // Exactness: the product has no entry outside str(A) ∪ diagonal.
  for (index_t i = 0; i < a.rows && !extra; ++i) {
    const auto ac = as.row_cols(i);
    for (index_t j : prod.row_cols(i)) {
      if (j != i && !std::binary_search(ac.begin(), ac.end(), j)) {
        extra = true;
        break;
      }
    }
  }
  r.exact = r.covers && !extra;
  return r;
}

}  // namespace pdslin
