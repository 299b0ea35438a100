// Randomized property sweeps (parameterized over seeds): structural
// invariants that must hold for arbitrary inputs, complementing the
// example-based unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "direct/etree.hpp"
#include "direct/lu.hpp"
#include "direct/multirhs.hpp"
#include "direct/trisolve.hpp"
#include "graph/graph.hpp"
#include "hypergraph/metrics.hpp"
#include "partition/engine.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "sparse/permute.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/symmetrize.hpp"
#include "test_util.hpp"

namespace pdslin {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, NestedDissectionValidOnRandomGraphs) {
  Rng rng(GetParam());
  const CsrMatrix a = testing::random_pattern_symmetric(200, 0.03, rng);
  const Graph g = graph_from_matrix(a);
  for (index_t k : {2, 4, 8}) {
    NgdOptions opt;
    opt.num_parts = k;
    opt.seed = GetParam();
    const DissectionResult r = partition::ngd_engine(g, opt, {}).unknowns;
    EXPECT_TRUE(is_valid_dissection(g, r)) << "k=" << k;
    // Every vertex labeled.
    for (index_t v = 0; v < g.n; ++v) {
      EXPECT_GE(r.part[v], DissectionResult::kSeparator);
      EXPECT_LT(r.part[v], k);
    }
  }
}

TEST_P(SeedSweep, RecursivePartitionMetricIdentities) {
  Rng rng(GetParam() ^ 0xABCDEF);
  const CsrMatrix m = testing::random_sparse(120, 80, 0.05, rng);
  const Hypergraph h = column_net_model(m);
  for (const CutMetric metric :
       {CutMetric::Con1, CutMetric::CutNet, CutMetric::Soed}) {
    const auto part =
        testing::static_partition(m, 4, metric, 0.05, GetParam());
    const CutSizes s = evaluate_cutsizes(h, part, 4);
    // Identities among the standard metrics (paper Eqs. (7)–(9)).
    EXPECT_EQ(s.soed, s.con1 + s.cnet);
    EXPECT_GE(s.con1, s.cnet);
    EXPECT_LE(s.con1, 3 * s.cnet);  // λ ≤ k = 4 → con1 ≤ (k−1)·cnet
  }
}

TEST_P(SeedSweep, BisectionCutEqualsCon1EqualsCnet) {
  Rng rng(GetParam() + 17);
  const CsrMatrix m = testing::random_sparse(90, 70, 0.06, rng);
  const Hypergraph h = column_net_model(m);
  const auto part =
      testing::static_partition(m, 2, CutMetric::Con1, 0.05, GetParam());
  const CutSizes s = evaluate_cutsizes(h, part, 2);
  EXPECT_EQ(s.con1, s.cnet);  // λ ∈ {1, 2} for a bisection
  EXPECT_EQ(s.soed, 2 * s.cnet);
}

TEST_P(SeedSweep, LuSolvesRandomSymmetricPatternSystems) {
  Rng rng(GetParam() * 31 + 7);
  const CsrMatrix a = testing::random_pattern_symmetric(80, 0.08, rng, 3.0);
  const LuFactors f = lu_factorize(a);
  std::vector<value_t> b(80), x(80);
  for (auto& v : b) v = rng.uniform(-1, 1);
  lu_solve(f, b, x);
  EXPECT_LT(residual_norm(a, x, b) / norm2(b), 1e-10);
  // Factor sizes: L and U each have at least the dimension (diagonals).
  EXPECT_GE(f.lower.nnz(), 80);
  EXPECT_GE(f.upper.nnz(), 80);
  EXPECT_TRUE(is_permutation(f.row_perm, 80));
}

TEST_P(SeedSweep, LuFillNeverBelowInput) {
  Rng rng(GetParam() * 13 + 5);
  const CsrMatrix a = testing::random_pattern_symmetric(60, 0.1, rng, 5.0);
  const LuFactors f = lu_factorize(a);
  // L+U holds the (permuted) matrix plus fill; nnz(L)+nnz(U) ≥ nnz(A)+n
  // (unit diagonal of L is stored explicitly).
  EXPECT_GE(f.fill_nnz(), static_cast<long long>(a.nnz()) + a.rows);
}

TEST_P(SeedSweep, BlockedMultiRhsSatisfiesSystem) {
  Rng rng(GetParam() ^ 0x5A5A);
  const CsrMatrix a = testing::random_pattern_symmetric(70, 0.08, rng, 4.0);
  const LuFactors f = lu_factorize(a);
  const CscMatrix b = csr_to_csc(testing::random_sparse(70, 9, 0.08, rng));
  std::vector<index_t> order(9);
  std::iota(order.begin(), order.end(), 0);
  const MultiRhsResult res = solve_multi_rhs_blocked(f.lower, b, order, 4);
  // Check L·x = b per column, densely.
  const auto dl = testing::to_dense(f.lower);
  const auto dx = testing::to_dense(res.solution);
  const auto db = testing::to_dense(b);
  for (index_t j = 0; j < 9; ++j) {
    for (index_t i = 0; i < 70; ++i) {
      value_t s = 0.0;
      for (index_t k = 0; k <= i; ++k) s += dl[i][k] * dx[k][j];
      EXPECT_NEAR(s, db[i][j], 1e-10);
    }
  }
}

TEST_P(SeedSweep, EtreePostorderOnRandomPatterns) {
  Rng rng(GetParam() + 99);
  const CsrMatrix a = testing::random_pattern_symmetric(120, 0.04, rng);
  const auto parent = elimination_tree(a);
  EXPECT_TRUE(is_valid_etree(parent));
  const auto post = tree_postorder(parent);
  EXPECT_TRUE(is_permutation(post, a.rows));
  std::vector<index_t> pos(a.rows);
  for (index_t k = 0; k < a.rows; ++k) pos[post[k]] = k;
  for (index_t v = 0; v < a.rows; ++v) {
    if (parent[v] >= 0) EXPECT_LT(pos[v], pos[parent[v]]);
  }
}

TEST_P(SeedSweep, SpgemmAssociativityOnPatterns) {
  Rng rng(GetParam() * 7 + 3);
  const CsrMatrix a = testing::random_sparse(20, 15, 0.2, rng, 1.0);
  const CsrMatrix b = testing::random_sparse(15, 18, 0.2, rng, 1.0);
  const CsrMatrix c = testing::random_sparse(18, 12, 0.2, rng, 1.0);
  const auto left = testing::to_dense(spgemm(spgemm(a, b), c));
  const auto right = testing::to_dense(spgemm(a, spgemm(b, c)));
  for (std::size_t i = 0; i < left.size(); ++i) {
    for (std::size_t j = 0; j < left[i].size(); ++j) {
      EXPECT_NEAR(left[i][j], right[i][j], 1e-10);
    }
  }
}

TEST_P(SeedSweep, SymmetrizeIsIdempotentOnSymmetric) {
  Rng rng(GetParam() + 1234);
  const CsrMatrix a = testing::random_sparse(40, 40, 0.1, rng, 2.0);
  const CsrMatrix s1 = symmetrize_abs(a);
  const CsrMatrix s2 = symmetrize_abs(s1);
  // Pattern fixed point (values double, pattern stable).
  CsrMatrix p1 = pattern_of(s1), p2 = pattern_of(s2);
  p1.sort_rows();
  p2.sort_rows();
  EXPECT_EQ(p1.col_idx, p2.col_idx);
  EXPECT_EQ(p1.row_ptr, p2.row_ptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 5ULL, 8ULL));

}  // namespace
}  // namespace pdslin
