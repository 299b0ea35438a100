// Tests for the hypergraph model, incremental bisection state, FM,
// coarsening, multilevel bisection, recursive k-way partitioning (through
// the partition engine with static weights) and the three cut metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "hypergraph/bisect.hpp"
#include "hypergraph/coarsen.hpp"
#include "hypergraph/fm.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/initial.hpp"
#include "hypergraph/metrics.hpp"
#include "sparse/convert.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace pdslin {
namespace {

TEST(HypergraphModel, ColumnNetFromMatrix) {
  // 3×4 matrix: rows are vertices, columns are nets.
  const CsrMatrix m = testing::from_dense({{1, 0, 1, 0},
                                           {1, 1, 0, 0},
                                           {0, 1, 1, 1}});
  const Hypergraph h = column_net_model(m);
  h.validate();
  EXPECT_EQ(h.num_vertices, 3);
  EXPECT_EQ(h.num_nets, 4);
  EXPECT_EQ(h.pins(0).size(), 2u);  // column 0 has rows 0, 1
  EXPECT_EQ(h.pins(3).size(), 1u);
  EXPECT_EQ(h.nets_of(2).size(), 3u);
  EXPECT_EQ(h.total_weight(0), 3);
}

TEST(BisectionState, ApplyMoveMatchesRebuild) {
  Rng rng(7);
  const CsrMatrix m = testing::random_sparse(30, 20, 0.2, rng);
  const Hypergraph h = column_net_model(m);
  HgBisection b;
  b.side.resize(h.num_vertices);
  for (auto& s : b.side) s = static_cast<signed char>(rng.index(2));
  b.rebuild(h);
  EXPECT_EQ(b.cut_cost, cut_cost_of(h, b.side));

  // Property: after any sequence of moves the incremental cut equals the
  // from-scratch cut.
  for (int mv = 0; mv < 200; ++mv) {
    const index_t v = rng.index(h.num_vertices);
    b.apply_move(h, v);
    ASSERT_EQ(b.cut_cost, cut_cost_of(h, b.side)) << "after move " << mv;
  }
  // Weights stay consistent too.
  HgBisection fresh;
  fresh.side = b.side;
  fresh.rebuild(h);
  EXPECT_EQ(fresh.weight[0], b.weight[0]);
  EXPECT_EQ(fresh.weight[1], b.weight[1]);
}

TEST(Coarsen, MatchingAndContraction) {
  Rng rng(11);
  const CsrMatrix m = testing::random_sparse(40, 30, 0.15, rng);
  const Hypergraph h = column_net_model(m);
  const auto match = heavy_connectivity_matching_det(h, 1);
  for (index_t v = 0; v < h.num_vertices; ++v) {
    EXPECT_EQ(match[match[v]], v);
  }
  const HgCoarsening c = contract(h, match);
  c.coarse.validate();
  EXPECT_LE(c.coarse.num_vertices, h.num_vertices);
  EXPECT_EQ(c.coarse.total_weight(0), h.total_weight(0));
  // No single-pin nets survive contraction.
  for (index_t n = 0; n < c.coarse.num_nets; ++n) {
    EXPECT_GE(c.coarse.pins(n).size(), 2u);
  }
}

TEST(Fm, ReducesCutAndRespectsBalance) {
  const CsrMatrix lap = testing::grid_laplacian(10, 10);
  const Hypergraph h = column_net_model(lap);
  Rng rng(13);
  HgBisection b = random_bisection(h, 0.5, rng);
  HgBalance bal;
  bal.target0 = {0.5};
  bal.epsilon = {0.05};
  const BalanceWindow w = balance_window(h, bal);
  const long long before = b.cut_cost;
  fm_refine(h, b, w, 8, rng);
  EXPECT_LT(b.cut_cost, before);
  EXPECT_TRUE(is_balanced(b, w));
  EXPECT_EQ(b.cut_cost, cut_cost_of(h, b.side));
}

TEST(Bisect, GridColumnNetQuality) {
  const CsrMatrix lap = testing::grid_laplacian(16, 16);
  const Hypergraph h = column_net_model(lap);
  HgBisectOptions opt;
  opt.seed = 17;
  const HgBisection b = bisect_hypergraph(h, opt);
  // Cutting a 16×16 grid column-net model: a straight cut crosses ~3 nets
  // per boundary vertex; accept a small multilevel factor.
  EXPECT_LE(b.cut_cost, 120);
  EXPECT_GT(b.cut_cost, 0);
  const long long total = h.total_weight(0);
  EXPECT_LE(std::max(b.weight[0][0], b.weight[1][0]),
            static_cast<long long>(0.56 * static_cast<double>(total)));
}

TEST(Bisect, EmptyHypergraphThrows) {
  Hypergraph h;  // zero vertices
  EXPECT_THROW(bisect_hypergraph(h, HgBisectOptions{}), Error);
}

TEST(Bisect, AllZeroWeightsThrow) {
  const CsrMatrix m = testing::from_dense({{1, 1, 0}, {0, 1, 1}});
  Hypergraph h = column_net_model(m);
  h.vwgt.assign(h.vwgt.size(), 0);
  EXPECT_THROW(bisect_hypergraph(h, HgBisectOptions{}), Error);
}

TEST(Bisect, SingleVertexIsTrivialNotAnError) {
  const CsrMatrix m = testing::from_dense({{1, 1, 1}});
  const Hypergraph h = column_net_model(m);
  const HgBisection b = bisect_hypergraph(h, HgBisectOptions{});
  ASSERT_EQ(b.side.size(), 1u);
  EXPECT_EQ(b.side[0], 0);
  EXPECT_EQ(b.cut_cost, 0);
}

TEST(Coarsen, DeterministicMatchingMatchesAcrossThreadCounts) {
  const CsrMatrix lap = testing::grid_laplacian(12, 12);
  const Hypergraph h = column_net_model(lap);
  const std::vector<index_t> m1 = heavy_connectivity_matching_det(h, 1);
  const std::vector<index_t> m4 = heavy_connectivity_matching_det(h, 4);
  EXPECT_EQ(m1, m4);
  // The matching must actually coarsen a grid model, not stall.
  index_t matched = 0;
  for (index_t v = 0; v < h.num_vertices; ++v) {
    if (m1[v] != v) ++matched;
  }
  EXPECT_GT(matched, h.num_vertices / 2);
}

TEST(Metrics, DefinitionsAndOrdering) {
  const CsrMatrix m = testing::from_dense({{1, 1, 0},
                                           {1, 0, 1},
                                           {0, 1, 1},
                                           {0, 0, 1}});
  const Hypergraph h = column_net_model(m);
  // parts: rows 0,1 → part 0; rows 2,3 → part 1.
  const std::vector<index_t> part{0, 0, 1, 1};
  const auto lambda = net_connectivity(h, part, 2);
  EXPECT_EQ(lambda[0], 1);  // net 0 pins {0,1} → one part
  EXPECT_EQ(lambda[1], 2);  // net 1 pins {0,2}
  EXPECT_EQ(lambda[2], 2);  // net 2 pins {1,2,3}
  const CutSizes s = evaluate_cutsizes(h, part, 2);
  EXPECT_EQ(s.con1, 2);
  EXPECT_EQ(s.cnet, 2);
  EXPECT_EQ(s.soed, 4);
  EXPECT_EQ(cutsize(h, part, 2, CutMetric::Soed), s.con1 + s.cnet);
}

TEST(Metrics, SeparatorLabelsIgnored) {
  const CsrMatrix m = testing::from_dense({{1, 1}, {1, 1}, {0, 1}});
  const Hypergraph h = column_net_model(m);
  const std::vector<index_t> part{0, -1, 1};  // middle row is "separator"
  const auto lambda = net_connectivity(h, part, 2);
  EXPECT_EQ(lambda[0], 1);
  EXPECT_EQ(lambda[1], 2);
}

class RecursivePartitionParam
    : public ::testing::TestWithParam<std::tuple<index_t, CutMetric>> {};

TEST_P(RecursivePartitionParam, PartitionsGridWithBalance) {
  const auto [k, metric] = GetParam();
  const CsrMatrix lap = testing::grid_laplacian(18, 18);
  const Hypergraph h = column_net_model(lap);
  const auto part = testing::static_partition(lap, k, metric, 0.05, 19);
  ASSERT_EQ(part.size(), static_cast<std::size_t>(h.num_vertices));
  std::vector<long long> sizes(k, 0);
  for (index_t p : part) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, k);
    ++sizes[p];
  }
  const long long mx = *std::max_element(sizes.begin(), sizes.end());
  const long long mn = *std::min_element(sizes.begin(), sizes.end());
  EXPECT_GE(mn, 1);
  EXPECT_LE(static_cast<double>(mx) / static_cast<double>(mn), 1.6);
  // Sanity on the metric value.
  const CutSizes s = evaluate_cutsizes(h, part, k);
  EXPECT_GT(s.cnet, 0);
  EXPECT_LE(s.cnet, s.con1 + 1);
  EXPECT_EQ(s.soed, s.con1 + s.cnet);
}

INSTANTIATE_TEST_SUITE_P(
    MetricsAndParts, RecursivePartitionParam,
    ::testing::Combine(::testing::Values<index_t>(2, 4, 8),
                       ::testing::Values(CutMetric::Con1, CutMetric::CutNet,
                                         CutMetric::Soed)));

TEST(RecursivePartition, ExactPartTargets) {
  // 60 columns of a random pattern partitioned into 6 parts of exactly 10.
  Rng rng(23);
  const CsrMatrix g = testing::random_sparse(80, 60, 0.1, rng);
  // Row-net model: the columns of g are the vertices, i.e. the rows of gᵀ.
  const auto part =
      testing::static_partition(transpose(g), 6, CutMetric::Con1, 0.0, 29);
  std::vector<index_t> sizes(6, 0);
  for (index_t p : part) ++sizes[p];
  for (index_t l = 0; l < 6; ++l) {
    // ε = 0 still allows one-vertex slack per bisection level (the FM
    // feasibility window), which compounds across log₂(6) levels; the RHS
    // pipeline rebalances to exactly B afterwards (tested in test_reorder).
    EXPECT_NEAR(sizes[l], 10, 3) << "part " << l;
  }
}

}  // namespace
}  // namespace pdslin
