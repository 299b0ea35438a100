// Tests for the tetrahedral generators, the FEM assembly helper, the NGD
// separator elimination order and the ordered-DBBD variant.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/dbbd.hpp"
#include "core/structural_factor.hpp"
#include "gen/fem_assembly.hpp"
#include "gen/tet_fem.hpp"
#include "graph/graph.hpp"
#include "partition/engine.hpp"
#include "sparse/permute.hpp"
#include "sparse/symmetrize.hpp"
#include "sparse/convert.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace pdslin {
namespace {

TEST(TetFem, LinearProfile) {
  TetFemOptions opt;
  opt.nx = opt.ny = opt.nz = 10;
  const GeneratedProblem p = generate_tet_fem(opt);
  EXPECT_EQ(p.a.rows, 1000);  // linear tets only use the corner grid
  const double per_row = static_cast<double>(p.a.nnz()) / p.a.rows;
  EXPECT_GT(per_row, 9.0);
  EXPECT_LT(per_row, 17.0);  // dds.linear-like profile
  EXPECT_TRUE(pattern_symmetric(p.a));
  EXPECT_TRUE(value_symmetric(p.a, 1e-12));
  EXPECT_TRUE(check_structural_factor(p.a, p.incidence).exact);
}

TEST(TetFem, QuadraticDenserAndLarger) {
  TetFemOptions lin;
  lin.nx = lin.ny = lin.nz = 6;
  TetFemOptions quad = lin;
  quad.quadratic = true;
  const GeneratedProblem pl = generate_tet_fem(lin);
  const GeneratedProblem pq = generate_tet_fem(quad);
  EXPECT_GT(pq.a.rows, pl.a.rows);  // midpoint nodes added
  const double lin_row = static_cast<double>(pl.a.nnz()) / pl.a.rows;
  const double quad_row = static_cast<double>(pq.a.nnz()) / pq.a.rows;
  EXPECT_GT(quad_row, 1.4 * lin_row);
  EXPECT_TRUE(check_structural_factor(pq.a, pq.incidence).exact);
}

TEST(TetFem, ConformingDecompositionIsConnected) {
  // Parity mirroring must make neighbouring cells share faces: the matrix
  // graph of a 3×3×3 grid must be connected.
  TetFemOptions opt;
  opt.nx = opt.ny = opt.nz = 3;
  const GeneratedProblem p = generate_tet_fem(opt);
  const Graph g = graph_from_matrix(symmetrize_abs(pattern_of(p.a)));
  const BfsResult r = bfs_levels(g, 0);
  for (index_t v = 0; v < g.n; ++v) EXPECT_GE(r.level[v], 0) << v;
}

TEST(FemAssembly, IsolatedNodesGetDiagonalAndSingletonRows) {
  // Two elements over nodes {0,1} and {2,3}; node 4 is isolated.
  const std::vector<std::vector<index_t>> elements{{0, 1}, {2, 3}};
  FemAssemblyOptions opt;
  const GeneratedProblem p = assemble_fem(elements, 5, opt);
  EXPECT_EQ(p.a.rows, 5);
  EXPECT_EQ(p.a.row_nnz(4), 1);  // diagonal only
  EXPECT_TRUE(check_structural_factor(p.a, p.incidence).covers);
}

TEST(FemAssembly, DofExpansion) {
  const std::vector<std::vector<index_t>> elements{{0, 1, 2}};
  FemAssemblyOptions opt;
  opt.dofs_per_node = 3;
  const GeneratedProblem p = assemble_fem(elements, 3, opt);
  EXPECT_EQ(p.a.rows, 9);
  EXPECT_EQ(p.a.nnz(), 81);  // full 9×9 clique
}

TEST(SeparatorOrder, IsPermutationOfSeparator) {
  const CsrMatrix a = testing::grid_laplacian(20, 20);
  const Graph g = graph_from_matrix(a);
  NgdOptions opt;
  opt.num_parts = 8;
  opt.seed = 5;
  const DissectionResult r = partition::ngd_engine(g, opt, {}).unknowns;
  ASSERT_EQ(r.separator_order.size(),
            static_cast<std::size_t>(r.separator_size));
  std::vector<char> seen(g.n, 0);
  for (index_t v : r.separator_order) {
    EXPECT_EQ(r.part[v], DissectionResult::kSeparator);
    EXPECT_FALSE(seen[v]);
    seen[v] = 1;
  }
}

TEST(SeparatorOrder, RootSeparatorComesLast) {
  // In elimination order the root (first bisection) separator is last. On
  // a 4-way dissection that means: some suffix of separator_order splits
  // the graph so that no connected component mixes parts {0,1} with parts
  // {2,3}, and every separator vertex before that suffix touches interior
  // vertices of one half only.
  const CsrMatrix a = testing::grid_laplacian(16, 16);
  const Graph g = graph_from_matrix(a);
  NgdOptions opt;
  opt.num_parts = 4;
  opt.seed = 7;
  const DissectionResult r = partition::ngd_engine(g, opt, {}).unknowns;
  const std::vector<index_t>& order = r.separator_order;
  auto half_of = [&](index_t v) {
    return r.part[v] == DissectionResult::kSeparator ? -1 : r.part[v] / 2;
  };

  // Does removing the last `t` separator vertices split the two halves?
  auto suffix_separates = [&](std::size_t t) {
    std::vector<char> removed(g.n, 0);
    for (std::size_t i = order.size() - t; i < order.size(); ++i) {
      removed[order[i]] = 1;
    }
    std::vector<char> seen(g.n, 0);
    for (index_t s = 0; s < g.n; ++s) {
      if (removed[s] || seen[s]) continue;
      // Flood one component of the remaining graph; it may hold interior
      // vertices of one half only.
      std::vector<index_t> stack{s};
      seen[s] = 1;
      index_t half = -1;
      while (!stack.empty()) {
        const index_t v = stack.back();
        stack.pop_back();
        const index_t h = half_of(v);
        if (h >= 0) {
          if (half >= 0 && half != h) return false;
          half = h;
        }
        for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
          const index_t u = g.adj[p];
          if (removed[u] || seen[u]) continue;
          seen[u] = 1;
          stack.push_back(u);
        }
      }
    }
    return true;
  };

  std::size_t tail = 0;
  while (tail <= order.size() && !suffix_separates(tail)) ++tail;
  ASSERT_GT(tail, 0u);  // the two halves are connected before any removal
  // Non-vacuous: the level-1 separators precede the root separator.
  ASSERT_LT(tail, order.size());
  for (std::size_t i = 0; i + tail < order.size(); ++i) {
    const index_t v = order[i];
    index_t touched = -1;
    for (index_t p = g.adj_ptr[v]; p < g.adj_ptr[v + 1]; ++p) {
      const index_t h = half_of(g.adj[p]);
      if (h < 0) continue;
      EXPECT_TRUE(touched < 0 || touched == h)
          << "separator vertex " << v << " at position " << i
          << " touches both halves";
      touched = h;
    }
  }
}

TEST(OrderedDbbd, SeparatorBlockFollowsGivenOrder) {
  const std::vector<index_t> part{0, -1, 1, -1, 0, -1};
  const std::vector<index_t> order{5, 1, 3};
  const DbbdPartition p = build_dbbd(part, 2, order);
  EXPECT_TRUE(is_permutation(p.perm, 6));
  const index_t sep_begin = p.domain_offset[2];
  EXPECT_EQ(p.perm[sep_begin + 0], 5);
  EXPECT_EQ(p.perm[sep_begin + 1], 1);
  EXPECT_EQ(p.perm[sep_begin + 2], 3);
  for (index_t i = 0; i < 6; ++i) EXPECT_EQ(p.iperm[p.perm[i]], i);
}

TEST(OrderedDbbd, RejectsBadOrders) {
  const std::vector<index_t> part{0, -1, 1, -1};
  EXPECT_THROW(build_dbbd(part, 2, {1}), Error);        // too short
  EXPECT_THROW(build_dbbd(part, 2, {1, 0}), Error);     // non-separator
  EXPECT_THROW(build_dbbd(part, 2, {1, 1}), Error);     // duplicate
  EXPECT_NO_THROW(build_dbbd(part, 2, {3, 1}));
  EXPECT_NO_THROW(build_dbbd(part, 2, {}));             // empty = default
}

}  // namespace
}  // namespace pdslin
