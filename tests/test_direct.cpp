// Tests for the sparse direct layer: elimination trees, postorder,
// minimum degree, symbolic factorization, LU, reach, triangular solves and
// the blocked multi-RHS solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include "direct/etree.hpp"
#include "direct/lu.hpp"
#include "direct/mindeg.hpp"
#include "direct/multirhs.hpp"
#include "direct/reach.hpp"
#include "direct/symbolic.hpp"
#include "direct/trisolve.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "sparse/permute.hpp"
#include "sparse/symmetrize.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace pdslin {
namespace {

using testing::to_dense;

TEST(Etree, KnownSmallExample) {
  // Arrow matrix: every row couples to the last → parent chain into n-1.
  const index_t n = 5;
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 1.0);
    if (i + 1 < n) {
      coo.add(i, n - 1, 1.0);
      coo.add(n - 1, i, 1.0);
    }
  }
  const auto parent = elimination_tree(coo_to_csr(coo));
  for (index_t i = 0; i + 1 < n; ++i) EXPECT_EQ(parent[i], n - 1);
  EXPECT_EQ(parent[n - 1], -1);
  EXPECT_TRUE(is_valid_etree(parent));
}

TEST(Etree, TridiagonalIsChain) {
  const index_t n = 6;
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 2.0);
    if (i + 1 < n) {
      coo.add(i, i + 1, -1.0);
      coo.add(i + 1, i, -1.0);
    }
  }
  const auto parent = elimination_tree(coo_to_csr(coo));
  for (index_t i = 0; i + 1 < n; ++i) EXPECT_EQ(parent[i], i + 1);
}

TEST(Etree, PostorderProperties) {
  const CsrMatrix a = testing::grid_laplacian(7, 7);
  const auto parent = elimination_tree(a);
  const auto post = tree_postorder(parent);
  EXPECT_TRUE(is_permutation(post, a.rows));
  // Postorder: every node appears after all of its children.
  std::vector<index_t> position(a.rows);
  for (index_t k = 0; k < a.rows; ++k) position[post[k]] = k;
  for (index_t v = 0; v < a.rows; ++v) {
    if (parent[v] >= 0) {
      EXPECT_LT(position[v], position[parent[v]]);
    }
  }
  // Subtrees are contiguous in a postorder.
  const auto size = subtree_sizes(parent);
  for (index_t v = 0; v < a.rows; ++v) {
    index_t lo = position[v], hi = position[v];
    // All nodes in v's subtree must occupy [pos(v)-size+1, pos(v)].
    lo = position[v] - size[v] + 1;
    for (index_t u = 0; u < a.rows; ++u) {
      // u in subtree of v iff its position is within the window.
      index_t w = u;
      bool in_subtree = false;
      while (w != -1) {
        if (w == v) { in_subtree = true; break; }
        w = parent[w];
      }
      if (in_subtree) {
        EXPECT_GE(position[u], lo);
        EXPECT_LE(position[u], hi);
      }
    }
  }
}

TEST(Etree, LevelsAndSizes) {
  // Chain 0→1→2 (parents), i.e. parent = {1, 2, -1}.
  const std::vector<index_t> parent{1, 2, -1};
  EXPECT_EQ(subtree_sizes(parent), (std::vector<index_t>{1, 2, 3}));
}

TEST(Symbolic, MatchesDenseCholeskyFill) {
  const CsrMatrix a = testing::grid_laplacian(5, 4);
  const SymbolicFactor s = symbolic_cholesky(a);
  // Dense symbolic elimination oracle.
  auto d = to_dense(a);
  const index_t n = a.rows;
  std::vector<index_t> counts(n, 0);
  for (index_t k = 0; k < n; ++k) {
    for (index_t i = k; i < n; ++i) {
      if (d[i][k] != 0.0) ++counts[k];
    }
    for (index_t i = k + 1; i < n; ++i) {
      if (d[i][k] == 0.0) continue;
      for (index_t j = k + 1; j < n; ++j) {
        if (d[j][k] != 0.0) d[i][j] = 1.0;  // structural update
      }
    }
  }
  for (index_t k = 0; k < n; ++k) EXPECT_EQ(s.col_counts[k], counts[k]) << k;
  // Full pattern agrees with the counts.
  const CscMatrix l = cholesky_pattern(a);
  for (index_t k = 0; k < n; ++k) EXPECT_EQ(l.col_nnz(k), counts[k]);
}

TEST(MinDeg, ValidPermutationOnSuiteOfGraphs) {
  for (index_t nx : {4, 9, 15}) {
    const CsrMatrix a = testing::grid_laplacian(nx, nx);
    const auto perm = minimum_degree_ordering(a);
    EXPECT_TRUE(is_permutation(perm, a.rows)) << nx;
  }
}

TEST(MinDeg, ReducesFillVersusNatural) {
  const CsrMatrix a = testing::grid_laplacian(16, 16);
  const auto perm = minimum_degree_ordering(a);
  const CsrMatrix ordered = permute_symmetric(a, perm);
  const auto fill_md = symbolic_cholesky(ordered).factor_nnz;
  const auto fill_nat = symbolic_cholesky(a).factor_nnz;
  EXPECT_LT(fill_md, fill_nat);
}

TEST(MinDeg, HandlesDenseRow) {
  // A matrix with one fully dense row/column (quasi-dense hub).
  const index_t n = 60;
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 4.0);
    if (i + 1 < n) { coo.add(i, i + 1, -1.0); coo.add(i + 1, i, -1.0); }
    if (i != n / 2) { coo.add(i, n / 2, -0.1); coo.add(n / 2, i, -0.1); }
  }
  const CsrMatrix a = coo_to_csr(coo);
  // Low dense_factor forces the hub through the postponement path.
  MinDegOptions opt;
  opt.dense_factor = 0.5;
  const auto perm = minimum_degree_ordering(a, opt);
  EXPECT_TRUE(is_permutation(perm, n));
  // The dense hub should be ordered last (postponed).
  EXPECT_EQ(perm.back(), n / 2);
  // Default options must also yield a valid permutation.
  EXPECT_TRUE(is_permutation(minimum_degree_ordering(a), n));
}

TEST(Lu, FactorsReproduceMatrix) {
  Rng rng(31);
  const CsrMatrix a = testing::random_pattern_symmetric(40, 0.15, rng);
  const LuFactors f = lu_factorize(a);
  // L·U must equal P·A: check via dense (U is stored by rows, as Uᵀ).
  const auto dl = to_dense(f.lower);
  const auto dut = to_dense(f.upper_t);
  const auto da = to_dense(a);
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t j = 0; j < a.cols; ++j) {
      value_t s = 0.0;
      for (index_t k = 0; k < a.rows; ++k) s += dl[i][k] * dut[j][k];
      EXPECT_NEAR(s, da[f.row_perm[i]][j], 1e-10);
    }
  }
}

TEST(Lu, SolveMatchesDenseOracle) {
  Rng rng(37);
  for (int trial = 0; trial < 5; ++trial) {
    const CsrMatrix a = testing::random_pattern_symmetric(50, 0.12, rng);
    const LuFactors f = lu_factorize(a);
    std::vector<value_t> b(50), x(50), xo;
    for (auto& v : b) v = rng.uniform(-1, 1);
    lu_solve(f, b, x);
    ASSERT_TRUE(testing::dense_solve(to_dense(a), b, xo));
    for (index_t i = 0; i < 50; ++i) EXPECT_NEAR(x[i], xo[i], 1e-9);
    EXPECT_LT(residual_norm(a, x, b), 1e-9);
  }
}

TEST(Lu, PartialPivotingHandlesZeroDiagonal) {
  // [0 1; 1 0] needs a row swap.
  const CsrMatrix a = testing::from_dense({{0, 1}, {1, 0}});
  const LuFactors f = lu_factorize(a);
  std::vector<value_t> b{2, 3}, x(2);
  lu_solve(f, b, x);
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

TEST(Lu, ThrowsOnSingular) {
  const CsrMatrix a = testing::from_dense({{1, 2}, {2, 4}});
  EXPECT_THROW(lu_factorize(a), Error);
  const CsrMatrix structurally = testing::from_dense({{1, 0}, {3, 0}});
  EXPECT_THROW(lu_factorize(structurally), Error);
}

TEST(Lu, CheckMessageNamesRepositoryPath) {
  // A failed check names its source file from src/ on, whatever directory
  // the library was built in: messages are copied into serve responses and
  // fuzz artifacts, so they must not carry a build's absolute path.
  const CsrMatrix pattern_only = pattern_of(testing::grid_laplacian(3, 3));
  try {
    (void)lu_factorize(pattern_only);
    FAIL() << "expected an Error for a pattern-only matrix";
  } catch (const Error& e) {
    const std::string what = e.what();
    const std::size_t at = what.find(" at ");
    ASSERT_NE(at, std::string::npos) << what;
    EXPECT_EQ(what.compare(at + 4, 18, "src/direct/lu.cpp:"), 0) << what;
  }
}

TEST(Lu, ThresholdKeepsDiagonalWhenAcceptable) {
  // Diagonally dominant → no pivoting expected with threshold 0.1.
  Rng rng(41);
  const CsrMatrix a = testing::random_pattern_symmetric(30, 0.2, rng, 10.0);
  LuOptions opt;
  opt.pivot_tol = 0.1;
  const LuFactors f = lu_factorize(a, opt);
  for (index_t k = 0; k < f.n; ++k) EXPECT_EQ(f.row_perm[k], k);
}

TEST(Reach, MatchesTransitiveClosure) {
  // Lower bidiagonal L: reach of {0} is everything.
  const index_t n = 8;
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 1.0);
    if (i + 1 < n) coo.add(i + 1, i, -0.5);
  }
  const CscMatrix l = coo_to_csc(coo);
  ReachSolver reach(l);
  const std::vector<index_t> seed{0};
  const auto r = reach.reach(seed);
  EXPECT_EQ(r.size(), static_cast<std::size_t>(n));
  // Reach of {n-1} is just itself.
  const std::vector<index_t> seed2{n - 1};
  EXPECT_EQ(reach.reach(seed2).size(), 1u);
}

TEST(SparseLowerSolver, MatchesDenseSolve) {
  Rng rng(43);
  const CsrMatrix a = testing::random_pattern_symmetric(40, 0.15, rng);
  const LuFactors f = lu_factorize(a);
  SparseLowerSolver solver(f.lower);
  // Sparse RHS with a few entries.
  std::vector<index_t> rows{3, 17, 29};
  std::vector<value_t> vals{1.0, -2.0, 0.5};
  const auto pattern = solver.solve(rows, vals);
  // Dense oracle.
  std::vector<value_t> dense_b(40, 0.0);
  for (std::size_t k = 0; k < rows.size(); ++k) dense_b[rows[k]] = vals[k];
  lower_solve_dense(f.lower, dense_b, /*unit_diag=*/true);
  for (index_t i = 0; i < 40; ++i) {
    const bool in_pattern =
        std::find(pattern.begin(), pattern.end(), i) != pattern.end();
    if (in_pattern) {
      EXPECT_NEAR(solver.value(i), dense_b[i], 1e-12);
    } else {
      EXPECT_EQ(dense_b[i], 0.0);  // pattern must cover all nonzeros
    }
  }
}

TEST(MultiRhs, BlockedEqualsColumnwise) {
  Rng rng(47);
  const CsrMatrix a = testing::random_pattern_symmetric(60, 0.1, rng);
  const LuFactors f = lu_factorize(a);
  // Sparse RHS block of 13 columns.
  const CsrMatrix bcsr = testing::random_sparse(60, 13, 0.06, rng);
  const CscMatrix b = csr_to_csc(bcsr);
  std::vector<index_t> order(13);
  std::iota(order.begin(), order.end(), 0);

  const MultiRhsResult blocked = solve_multi_rhs_blocked(f.lower, b, order, 4);
  // Column-by-column oracle.
  SparseLowerSolver ref(f.lower);
  for (index_t j = 0; j < 13; ++j) {
    const auto pat = ref.solve(b.col_rows(j), b.col_vals(j));
    const auto sol_rows = blocked.solution.col_rows(j);
    const auto sol_vals = blocked.solution.col_vals(j);
    ASSERT_EQ(sol_rows.size(), pat.size()) << "col " << j;
    for (std::size_t k = 0; k < pat.size(); ++k) {
      EXPECT_EQ(sol_rows[k], pat[k]);
      EXPECT_NEAR(sol_vals[k], ref.value(pat[k]), 1e-12);
    }
  }
}

TEST(MultiRhs, PaddingAccounting) {
  Rng rng(53);
  const CsrMatrix a = testing::random_pattern_symmetric(50, 0.1, rng);
  const LuFactors f = lu_factorize(a);
  const CscMatrix b = csr_to_csc(testing::random_sparse(50, 12, 0.08, rng));
  std::vector<index_t> order(12);
  std::iota(order.begin(), order.end(), 0);

  // Block size 1 → no padding at all.
  const auto r1 = solve_multi_rhs_blocked(f.lower, b, order, 1);
  EXPECT_EQ(r1.stats.padded_zeros, 0);
  EXPECT_EQ(r1.stats.num_blocks, 12);

  // Bigger blocks pad at least as much.
  const auto r4 = solve_multi_rhs_blocked(f.lower, b, order, 4);
  const auto r12 = solve_multi_rhs_blocked(f.lower, b, order, 12);
  EXPECT_GE(r4.stats.padded_zeros, 0);
  EXPECT_GE(r12.stats.padded_zeros, r4.stats.padded_zeros);
  EXPECT_EQ(r4.stats.pattern_nnz, r1.stats.pattern_nnz);
  // Fraction in [0, 1).
  EXPECT_GE(r12.stats.padded_fraction(), 0.0);
  EXPECT_LT(r12.stats.padded_fraction(), 1.0);
}

TEST(MultiRhs, SymbolicPatternsMatchSolver) {
  Rng rng(59);
  const CsrMatrix a = testing::random_pattern_symmetric(40, 0.12, rng);
  const LuFactors f = lu_factorize(a);
  const CscMatrix b = csr_to_csc(testing::random_sparse(40, 6, 0.1, rng));
  const auto patterns = symbolic_solve_patterns(f.lower, b);
  SparseLowerSolver ref(f.lower);
  for (index_t j = 0; j < 6; ++j) {
    const auto pat = ref.symbolic(b.col_rows(j));
    ASSERT_EQ(patterns[j].size(), pat.size());
    EXPECT_TRUE(std::equal(pat.begin(), pat.end(), patterns[j].begin()));
  }
}

TEST(TriSolve, UpperSolveMatchesDense) {
  Rng rng(61);
  const CsrMatrix a = testing::random_pattern_symmetric(30, 0.2, rng);
  const LuFactors f = lu_factorize(a);
  std::vector<value_t> b(30);
  for (auto& v : b) v = rng.uniform(-1, 1);
  // x = U⁻¹ b via the sparse kernel, checked against dense U (= Uᵀ's
  // transpose).
  std::vector<value_t> x = b;
  upper_solve_dense(f.upper_t, x);
  const auto dut = to_dense(f.upper_t);
  for (index_t i = 0; i < 30; ++i) {
    value_t s = 0.0;
    for (index_t j = 0; j < 30; ++j) s += dut[j][i] * x[j];
    EXPECT_NEAR(s, b[i], 1e-10);
  }
}

/// The column-scatter backward solve on U stored by columns (diagonal
/// last): for j from the last column down, x_j /= U_jj and, unless x_j is
/// zero, x_i −= U_ij·x_j down the column. The row gather must give its bits.
void scatter_upper_solve(const CscMatrix& u, std::vector<value_t>& x) {
  for (index_t j = u.cols - 1; j >= 0; --j) {
    const index_t end = u.col_ptr[j + 1];
    x[j] /= u.values[end - 1];
    const value_t xj = x[j];
    if (xj == 0.0) continue;
    for (index_t p = u.col_ptr[j]; p < end - 1; ++p) {
      x[u.row_idx[p]] -= u.values[p] * xj;
    }
  }
}

/// U by rows (LuFactors::upper_t) from U's CSR arrays, which are Uᵀ's CSC.
CscMatrix rows_of(const CsrMatrix& u) {
  CscMatrix ut(u.cols, u.rows);
  ut.col_ptr = u.row_ptr;
  ut.row_idx = u.col_idx;
  ut.values = u.values;
  return ut;
}

bool same_bits(const std::vector<value_t>& a, const std::vector<value_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)) == 0;
}

TEST(TriSolve, UpperGatherGivesColumnScatterBits) {
  // Solution x = (1, +0.0, −0.0, +0.0): each zero x_j is skipped, as the
  // scatter skips its column. Without the skip row 1 would compute
  // ((−0.0 − 5·(+0.0)) − 1·(−0.0)) / −2 = −0.0 instead of +0.0.
  const CsrMatrix u = testing::from_dense({{1, 3, -1, 2},
                                           {0, -2, 1, 5},
                                           {0, 0, -1, 4},
                                           {0, 0, 0, 3}});
  const std::vector<value_t> b{1.0, -0.0, 0.0, 0.0};
  std::vector<value_t> gather = b, scatter = b;
  upper_solve_dense(rows_of(u), gather);
  scatter_upper_solve(csr_to_csc(u), scatter);
  EXPECT_TRUE(same_bits(gather, scatter));
  EXPECT_TRUE(std::signbit(gather[2]));
  EXPECT_FALSE(std::signbit(gather[1]));

  // An LU factor and a right-hand side with zero entries: the subtraction
  // order (descending column) decides the rounding of every row.
  Rng rng(67);
  const LuFactors f = lu_factorize(testing::random_pattern_symmetric(60, 0.1, rng));
  std::vector<value_t> x(60);
  for (auto& v : x) v = rng.uniform(-1, 1) < -0.5 ? 0.0 : rng.uniform(-1, 1);
  gather = x;
  scatter = x;
  upper_solve_dense(f.upper_t, gather);
  scatter_upper_solve(transpose(f.upper_t), scatter);
  EXPECT_TRUE(same_bits(gather, scatter));
}

TEST(TriSolve, SweepsOverClosedListsMatchTheFullSolve) {
  Rng rng(71);
  const LuFactors f = lu_factorize(testing::random_pattern_symmetric(80, 0.04, rng));
  const index_t n = f.n;
  // b nonzero at three positions; the forward sweep over their reach
  // (closed under L's columns) is the full sweep, bit for bit.
  std::vector<value_t> b(n, 0.0);
  std::vector<char> mark(n, 0);
  for (index_t i : {5, 23, 41}) {
    b[i] = rng.uniform(-1, 1);
    mark[i] = 1;
  }
  std::vector<index_t> reach;
  for (index_t j = 0; j < n; ++j) {
    if (mark[j] == 0) continue;
    reach.push_back(j);
    for (index_t r : f.lower.col_rows(j)) mark[r] = 1;
  }
  ASSERT_LT(reach.size(), static_cast<std::size_t>(n));
  std::vector<value_t> full = b, part = b;
  lower_solve_dense(f.lower, full, /*unit_diag=*/true);
  lower_solve_dense(f.lower, part, /*unit_diag=*/true, reach);
  EXPECT_TRUE(same_bits(full, part));

  // The backward sweep over rows {10, 50} closed under U's rows computes
  // exactly those rows of the full solve and leaves the others as they were.
  std::fill(mark.begin(), mark.end(), 0);
  mark[10] = mark[50] = 1;
  std::vector<index_t> need;
  for (index_t i = 0; i < n; ++i) {
    if (mark[i] == 0) continue;
    need.push_back(i);
    for (index_t j : f.upper_t.col_rows(i)) mark[j] = 1;
  }
  ASSERT_LT(need.size(), static_cast<std::size_t>(n));
  std::vector<value_t> y(n);
  for (auto& v : y) v = rng.uniform(-1, 1);
  full = y;
  part = y;
  upper_solve_dense(f.upper_t, full);
  upper_solve_dense(f.upper_t, part, need);
  for (index_t i = 0; i < n; ++i) {
    const bool in_need = std::binary_search(need.begin(), need.end(), i);
    const value_t expect = in_need ? full[i] : y[i];
    EXPECT_EQ(0, std::memcmp(&part[i], &expect, sizeof(value_t))) << i;
  }
}

CscMatrix tiny_upper_zero_diag() {
  // U = [[1, 2], [0, 0]] — structurally present but numerically zero pivot.
  // Stored by rows (CSC of Uᵀ, diagonal first).
  CscMatrix ut(2, 2);
  ut.col_ptr = {0, 2, 3};
  ut.row_idx = {0, 1, 1};
  ut.values = {1.0, 2.0, 0.0};
  return ut;
}

TEST(TriSolve, UpperSolveDenseZeroPivotThrows) {
  const CscMatrix u = tiny_upper_zero_diag();
  std::vector<value_t> x = {1.0, 1.0};
  EXPECT_THROW(upper_solve_dense(u, x), Error);
  try {
    std::vector<value_t> y = {1.0, 1.0};
    upper_solve_dense(u, y);
    FAIL() << "expected singular Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("singular"), std::string::npos);
  }
}

TEST(TriSolve, LowerSolveDenseZeroPivotThrows) {
  // Non-unit lower solve dividing by a planted zero diagonal.
  CscMatrix l(2, 2);
  l.col_ptr = {0, 2, 3};
  l.row_idx = {0, 1, 1};
  l.values = {0.0, 3.0, 1.0};
  std::vector<value_t> x = {1.0, 1.0};
  EXPECT_THROW(lower_solve_dense(l, x, /*unit_diag=*/false), Error);
}

TEST(SparseLowerSolver, ZeroPivotThrows) {
  CscMatrix l(2, 2);
  l.col_ptr = {0, 2, 3};
  l.row_idx = {0, 1, 1};
  l.values = {0.0, 3.0, 1.0};
  SparseLowerSolver solver(l);
  const std::vector<index_t> rows = {0};
  const std::vector<value_t> vals = {1.0};
  EXPECT_THROW(solver.solve(rows, vals), Error);
}

}  // namespace
}  // namespace pdslin
