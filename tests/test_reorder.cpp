// Tests for the §IV RHS reordering machinery: padding cost (Eqs. 13–15),
// e-tree postordering, hypergraph ordering, quasi-dense filtering.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "direct/analysis.hpp"
#include "direct/lu.hpp"
#include "direct/mindeg.hpp"
#include "direct/multirhs.hpp"
#include "reorder/hypergraph_rhs.hpp"
#include "reorder/padding.hpp"
#include "reorder/postorder_rhs.hpp"
#include "reorder/quasidense.hpp"
#include "sparse/permute.hpp"
#include "sparse/symmetrize.hpp"
#include "test_util.hpp"

namespace pdslin {
namespace {

// Build a realistic multi-RHS setup: a grid subdomain and sparse RHS.
struct RhsFixture {
  CsrMatrix d;
  CscMatrix rhs;
  LuFactors lu;
  std::vector<std::vector<index_t>> patterns;
};

RhsFixture make_fixture(index_t grid, index_t ncols, double density,
                        std::uint64_t seed) {
  RhsFixture f;
  f.d = testing::grid_laplacian(grid, grid);
  Rng rng(seed);
  f.rhs = csr_to_csc(testing::random_sparse(f.d.rows, ncols, density, rng));
  f.lu = lu_factorize(f.d);
  // Rows of the RHS must be in factor row order for pattern computations;
  // grid Laplacian with threshold pivoting keeps the identity row order.
  f.patterns = symbolic_solve_patterns(f.lu.lower, f.rhs);
  return f;
}

TEST(Padding, ColumnwiseMatchesRowwiseOracle) {
  const RhsFixture f = make_fixture(9, 24, 0.05, 3);
  const index_t b = 6;
  std::vector<index_t> order(24);
  std::iota(order.begin(), order.end(), 0);
  const PaddingCost cost = padding_cost(f.patterns, order, b);
  // Eq. (14) oracle with the same blocks as parts.
  std::vector<index_t> part(24);
  for (index_t j = 0; j < 24; ++j) part[j] = j / b;
  EXPECT_EQ(cost.padded_zeros, padded_zeros_rowwise(f.patterns, part, 24 / b));
}

TEST(Padding, AgreesWithBlockedSolver) {
  const RhsFixture f = make_fixture(8, 20, 0.06, 5);
  std::vector<index_t> order(20);
  std::iota(order.begin(), order.end(), 0);
  for (index_t b : {1, 4, 7, 20}) {
    const PaddingCost predicted = padding_cost(f.patterns, order, b);
    const MultiRhsResult solved =
        solve_multi_rhs_blocked(f.lu.lower, f.rhs, order, b);
    EXPECT_EQ(predicted.padded_zeros, solved.stats.padded_zeros) << "B=" << b;
    EXPECT_EQ(predicted.pattern_nnz, solved.stats.pattern_nnz);
  }
}

// The §IV-A ordering as the pipeline runs it: the e-tree postorder of D,
// then the RHS columns sorted by first nonzero under it.
TEST(PostorderRhs, PermutationValidAndSorted) {
  const RhsFixture f = make_fixture(10, 30, 0.04, 7);
  const std::vector<index_t> d_perm =
      postorder_analysis(analyze_pattern(f.d, FillOrdering::Given)).colmap;
  const std::vector<index_t> col_order =
      sort_columns_by_first_nonzero(f.rhs, d_perm);
  EXPECT_TRUE(is_permutation(d_perm, f.d.rows));
  EXPECT_TRUE(is_permutation(col_order, 30));
  // Columns sorted by first nonzero under the postorder.
  const auto inv = invert_permutation(d_perm);
  auto first_nz = [&](index_t col) {
    index_t key = f.d.rows;
    for (index_t r : f.rhs.col_rows(col)) key = std::min(key, inv[r]);
    return key;
  };
  for (std::size_t k = 1; k < col_order.size(); ++k) {
    EXPECT_LE(first_nz(col_order[k - 1]), first_nz(col_order[k]));
  }
}

TEST(PostorderRhs, ReducesPaddingVersusRandomOrder) {
  // Factor the postorder-permuted matrix, then compare padding for the
  // sorted column order vs a random order (property the paper's Fig. 4
  // relies on).
  const index_t grid = 12, ncols = 48, block = 8;
  CsrMatrix d = testing::grid_laplacian(grid, grid);
  Rng rng(11);
  CscMatrix rhs = csr_to_csc(testing::random_sparse(d.rows, ncols, 0.03, rng));
  const std::vector<index_t> d_perm =
      postorder_analysis(analyze_pattern(d, FillOrdering::Given)).colmap;
  const std::vector<index_t> col_order =
      sort_columns_by_first_nonzero(rhs, d_perm);

  const CsrMatrix dp = permute_symmetric(d, d_perm);
  // Permute RHS rows conformingly.
  const auto inv = invert_permutation(d_perm);
  CooMatrix coo(d.rows, ncols);
  for (index_t j = 0; j < ncols; ++j) {
    for (index_t q = rhs.col_ptr[j]; q < rhs.col_ptr[j + 1]; ++q) {
      coo.add(inv[rhs.row_idx[q]], j, rhs.values[q]);
    }
  }
  const CscMatrix rhs_p = coo_to_csc(coo);
  const LuFactors lu = lu_factorize(dp);
  const auto patterns = symbolic_solve_patterns(lu.lower, rhs_p);

  std::vector<index_t> random_order(ncols);
  std::iota(random_order.begin(), random_order.end(), 0);
  std::shuffle(random_order.begin(), random_order.end(), rng);

  const auto sorted_cost = padding_cost(patterns, col_order, block);
  const auto random_cost = padding_cost(patterns, random_order, block);
  EXPECT_LT(sorted_cost.padded_zeros, random_cost.padded_zeros);
}

TEST(HypergraphRhs, ValidOrderAndBlocks) {
  const RhsFixture f = make_fixture(10, 50, 0.04, 13);
  HypergraphRhsOptions opt;
  opt.block_size = 8;
  opt.seed = 17;
  const HypergraphRhsResult r =
      hypergraph_rhs_ordering(f.patterns, f.d.rows, opt);
  EXPECT_TRUE(is_permutation(r.col_order, 50));
  EXPECT_GE(r.partition_seconds, 0.0);
}

TEST(HypergraphRhs, BeatsRandomOrderOnPadding) {
  const RhsFixture f = make_fixture(14, 64, 0.02, 19);
  const index_t block = 8;
  HypergraphRhsOptions opt;
  opt.block_size = block;
  opt.seed = 23;
  const auto hg = hypergraph_rhs_ordering(f.patterns, f.d.rows, opt);

  Rng rng(29);
  std::vector<index_t> random_order(64);
  std::iota(random_order.begin(), random_order.end(), 0);
  std::shuffle(random_order.begin(), random_order.end(), rng);

  const auto hg_cost = padding_cost(f.patterns, hg.col_order, block);
  const auto random_cost = padding_cost(f.patterns, random_order, block);
  EXPECT_LT(hg_cost.padded_zeros, random_cost.padded_zeros);
}

TEST(HypergraphRhs, FewColumnsFallsBackToIdentity) {
  const RhsFixture f = make_fixture(6, 5, 0.1, 31);
  HypergraphRhsOptions opt;
  opt.block_size = 8;  // one partial block only
  const auto r = hypergraph_rhs_ordering(f.patterns, f.d.rows, opt);
  std::vector<index_t> identity(5);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(r.col_order, identity);
}

TEST(QuasiDense, FiltersEmptyAndDenseRows) {
  // 5 columns; rows: empty, sparse(1), dense(5), sparse(2), dense(4).
  const std::vector<std::vector<index_t>> g = {
      {2, 4}, {2, 3, 4}, {1, 2, 4}, {2, 3, 4}, {2}};
  const QuasiDenseFilter f = remove_quasi_dense_rows(g, 5, 0.7);
  EXPECT_EQ(f.removed_empty, 1);
  EXPECT_EQ(f.removed_dense, 2);  // rows with 5 and 4 nonzeros (≥ 3.5)
  EXPECT_EQ(f.kept_rows, (std::vector<index_t>{1, 3}));
  // One vertex per column, listing the kept rows it touches: row 1 is
  // net 0, row 3 is net 1.
  EXPECT_EQ(f.vertex_nets.rows, 5);
  EXPECT_EQ(f.vertex_nets.cols, 2);
  EXPECT_EQ(f.vertex_nets.row_ptr, (std::vector<index_t>{0, 0, 1, 2, 3, 3}));
  EXPECT_EQ(f.vertex_nets.col_idx, (std::vector<index_t>{1, 0, 1}));
  // tau > 1 keeps dense rows.
  const QuasiDenseFilter keep = remove_quasi_dense_rows(g, 5, 1.5);
  EXPECT_EQ(keep.removed_dense, 0);
  EXPECT_EQ(keep.removed_empty, 1);
}

TEST(QuasiDense, SpeedsUpPartitioningWithoutQualityLoss) {
  // A G with a few dense rows: removing them must not blow up padding.
  const index_t n = 150, ncols = 48, block = 8;
  Rng rng(37);
  CooMatrix coo(n, ncols);
  for (index_t j = 0; j < ncols; ++j) {
    for (int e = 0; e < 5; ++e) coo.add(rng.index(n), j, 1.0);
  }
  for (index_t r = 0; r < 6; ++r) {  // quasi-dense rows touch all columns
    for (index_t j = 0; j < ncols; ++j) coo.add(r, j, 1.0);
  }
  const CsrMatrix g_rows = coo_to_csr(coo);
  std::vector<std::vector<index_t>> patterns(ncols);
  const CscMatrix gc = csr_to_csc(g_rows);
  for (index_t j = 0; j < ncols; ++j) {
    patterns[j].assign(gc.col_rows(j).begin(), gc.col_rows(j).end());
  }
  HypergraphRhsOptions with_filter;
  with_filter.block_size = block;
  with_filter.quasi_dense_tau = 0.5;
  with_filter.seed = 41;
  HypergraphRhsOptions no_filter = with_filter;
  no_filter.quasi_dense_tau = 2.0;

  const auto rf = hypergraph_rhs_ordering(patterns, n, with_filter);
  const auto rn = hypergraph_rhs_ordering(patterns, n, no_filter);
  EXPECT_GT(rf.removed_dense_rows, 0);
  const auto cf = padding_cost(patterns, rf.col_order, block);
  const auto cn = padding_cost(patterns, rn.col_order, block);
  // Quality within 25% of the unfiltered ordering (paper: "largely
  // independent of the threshold").
  EXPECT_LE(static_cast<double>(cf.padded_zeros),
            1.25 * static_cast<double>(cn.padded_zeros) + 32.0);
}

}  // namespace
}  // namespace pdslin
