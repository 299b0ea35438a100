// Tests for the graph model, coarsening, multilevel bisection, vertex
// separators and nested dissection.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "graph/bisect.hpp"
#include "sparse/permute.hpp"
#include "util/error.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"
#include "partition/engine.hpp"
#include "graph/separator.hpp"
#include "test_util.hpp"

namespace pdslin {
namespace {

Graph grid_graph(index_t nx, index_t ny) {
  return graph_from_matrix(testing::grid_laplacian(nx, ny));
}

TEST(Graph, FromMatrixDropsDiagonal) {
  const Graph g = grid_graph(3, 3);
  g.validate();
  EXPECT_EQ(g.n, 9);
  // Interior vertex has degree 4, corners 2.
  EXPECT_EQ(g.degree(4), 4);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.total_vertex_weight(), 9);
}

TEST(Graph, BfsLevelsAndPeripheral) {
  const Graph g = grid_graph(5, 1);  // path graph of 5 vertices
  const BfsResult r = bfs_levels(g, 2);
  EXPECT_EQ(r.level[0], 2);
  EXPECT_EQ(r.level[4], 2);
  EXPECT_EQ(r.num_levels, 3);
  const index_t p = pseudo_peripheral_vertex(g, 2);
  EXPECT_TRUE(p == 0 || p == 4);
}

TEST(Matching, ValidPairsAndContraction) {
  const Graph g = grid_graph(6, 6);
  Rng rng(1);
  const auto match = heavy_edge_matching(g, rng);
  for (index_t v = 0; v < g.n; ++v) {
    EXPECT_EQ(match[match[v]], v);  // involution
  }
  const Coarsening c = contract(g, match);
  c.coarse.validate();
  EXPECT_LT(c.coarse.n, g.n);
  EXPECT_EQ(c.coarse.total_vertex_weight(), g.total_vertex_weight());
  // Total edge weight is preserved minus contracted edges.
  long long fine_w = 0, coarse_w = 0;
  for (index_t w : g.ewgt) fine_w += w;
  for (index_t w : c.coarse.ewgt) coarse_w += w;
  EXPECT_LE(coarse_w, fine_w);
}

TEST(Bisect, BalanceAndCutOnGrid) {
  const Graph g = grid_graph(16, 16);
  GraphBisectOptions opt;
  opt.epsilon = 0.05;
  opt.seed = 3;
  const GraphBisection b = bisect_graph(g, opt);
  EXPECT_EQ(b.cut, edge_cut(g, b.side));
  const long long total = g.total_vertex_weight();
  EXPECT_LE(b.weight[0], static_cast<long long>(1.08 * total / 2));
  EXPECT_LE(b.weight[1], static_cast<long long>(1.08 * total / 2));
  // A 16×16 grid has a bisection of width ~16; multilevel+FM should land
  // within a small factor.
  EXPECT_LE(b.cut, 48);
  EXPECT_GE(b.cut, 16);
}

TEST(Bisect, FmImprovesRandomPartition) {
  const Graph g = grid_graph(12, 12);
  Rng rng(5);
  GraphBisection b;
  b.side.resize(g.n);
  for (auto& s : b.side) s = static_cast<signed char>(rng.index(2));
  b.cut = edge_cut(g, b.side);
  b.weight[0] = 0;
  for (index_t v = 0; v < g.n; ++v) {
    if (b.side[v] == 0) b.weight[0] += g.vwgt[v];
  }
  b.weight[1] = g.total_vertex_weight() - b.weight[0];
  const long long before = b.cut;
  fm_refine_graph(g, b, 0.1, 10, rng);
  EXPECT_LT(b.cut, before);
  EXPECT_EQ(b.cut, edge_cut(g, b.side));
}

TEST(Separator, CoversAllCutEdges) {
  const Graph g = grid_graph(14, 14);
  GraphBisectOptions opt;
  opt.seed = 7;
  const GraphBisection b = bisect_graph(g, opt);
  const VertexSeparator s = vertex_separator_from_bisection(g, b);
  EXPECT_TRUE(is_valid_separator(g, s));
  EXPECT_GT(s.separator_size, 0);
  // Separator of a 14×14 grid bisection should be near 14.
  EXPECT_LE(s.separator_size, 42);
  index_t counted = 0;
  for (auto l : s.label) {
    if (l == SepLabel::Separator) ++counted;
  }
  EXPECT_EQ(counted, s.separator_size);
}

class NestedDissectionParam : public ::testing::TestWithParam<index_t> {};

TEST_P(NestedDissectionParam, ValidAndBalanced) {
  const index_t k = GetParam();
  const Graph g = grid_graph(24, 24);
  NgdOptions opt;
  opt.num_parts = k;
  opt.seed = 11;
  const DissectionResult r = partition::ngd_engine(g, opt, {}).unknowns;
  EXPECT_TRUE(is_valid_dissection(g, r));
  std::vector<long long> sizes(k, 0);
  for (index_t v = 0; v < g.n; ++v) {
    if (r.part[v] >= 0) ++sizes[r.part[v]];
  }
  for (index_t l = 0; l < k; ++l) EXPECT_GT(sizes[l], 0);
  EXPECT_GT(r.separator_size, 0);
  EXPECT_LT(r.separator_size, g.n / 4);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, NestedDissectionParam,
                         ::testing::Values(2, 4, 8, 16));

TEST(NestedDissection, RejectsNonPowerOfTwo) {
  const Graph g = grid_graph(4, 4);
  NgdOptions opt;
  opt.num_parts = 6;
  EXPECT_THROW(partition::ngd_engine(g, opt, {}), Error);
}

}  // namespace
}  // namespace pdslin
