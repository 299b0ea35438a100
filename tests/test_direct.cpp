// Tests for the sparse direct layer: elimination trees, postorder,
// minimum degree, symbolic factorization, LU, reach, triangular solves and
// the blocked multi-RHS solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include "direct/analysis.hpp"
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
  // Subtrees are contiguous in a postorder. parent[v] > v, so one ascending
  // pass accumulates every subtree size.
  std::vector<index_t> size(a.rows, 1);
  for (index_t v = 0; v < a.rows; ++v) {
    if (parent[v] >= 0) size[parent[v]] += size[v];
  }
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
  const CscMatrix l = cholesky_pattern(a, s);
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
  // An arrow: a chain plus one fully dense row/column (quasi-dense hub).
  // The hub's degree, n − 1 = 127, reaches the dense threshold
  // max(16, ⌊10·√n⌋) = 113, so it takes the postponement path (at n = 60
  // the threshold, 77, is above the hub's 59).
  const index_t n = 128;
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 4.0);
    if (i + 1 < n) { coo.add(i, i + 1, -1.0); coo.add(i + 1, i, -1.0); }
    if (i != n / 2) { coo.add(i, n / 2, -0.1); coo.add(n / 2, i, -0.1); }
  }
  const CsrMatrix a = coo_to_csr(coo);
  const auto perm = minimum_degree_ordering(a);
  EXPECT_TRUE(is_permutation(perm, n));
  // The dense hub should be ordered last (postponed).
  EXPECT_EQ(perm.back(), n / 2);
}

// analyze_pattern computes once what the ordering sequence computed step by
// step: minimum degree of |A| + |Aᵀ|, the ordered pattern the panel kernel
// used to rebuild from the permuted matrix, its e-tree and column counts,
// and for the postorder the same recomputed on the postordered matrix.
TEST(PatternAnalysis, MatchesTheStepwiseSequence) {
  Rng rng(61);
  for (const double density : {0.02, 0.05, 0.12}) {
    const CsrMatrix a = testing::random_sparse(90, 90, density, rng, 1.0);
    const CsrMatrix sym = symmetrize_abs(pattern_of(a));
    const std::vector<index_t> md = minimum_degree_ordering(sym);
    const std::vector<index_t> post = tree_postorder(
        elimination_tree(symmetrize_abs(pattern_of(permute_symmetric(a, md)))));
    std::vector<index_t> md_post(md.size());
    for (std::size_t i = 0; i < md.size(); ++i) md_post[i] = md[post[i]];
    std::vector<index_t> identity(md.size());
    std::iota(identity.begin(), identity.end(), 0);

    const std::pair<FillOrdering, const std::vector<index_t>*> cases[] = {
        {FillOrdering::Given, &identity},
        {FillOrdering::MinimumDegree, &md},
        {FillOrdering::MinimumDegreePostorder, &md_post}};
    for (const auto& [ordering, colmap] : cases) {
      const PatternAnalysis an = analyze_pattern(a, ordering);
      EXPECT_EQ(an.colmap, *colmap) << density;
      const CsrMatrix want =
          symmetrize_abs(pattern_of(permute_symmetric(a, *colmap)));
      EXPECT_EQ(an.pattern.row_ptr, want.row_ptr) << density;
      EXPECT_EQ(an.pattern.col_idx, want.col_idx) << density;
      EXPECT_FALSE(an.pattern.has_values());
      const SymbolicFactor sf = symbolic_cholesky(want);
      EXPECT_EQ(an.symbolic.parent, sf.parent) << density;
      EXPECT_EQ(an.symbolic.col_counts, sf.col_counts) << density;
      EXPECT_EQ(an.symbolic.factor_nnz, sf.factor_nnz) << density;
    }
  }
}

// Factoring through an analysis gives the factors of the permuted matrix.
TEST(PatternAnalysis, AnalyzedFactorsEqualThePermutedMatrixFactors) {
  Rng rng(67);
  const CsrMatrix a = testing::random_sparse(120, 120, 0.04, rng, 2.0);
  for (const FillOrdering ordering :
       {FillOrdering::Given, FillOrdering::MinimumDegree,
        FillOrdering::MinimumDegreePostorder}) {
    const PatternAnalysis an = analyze_pattern(a, ordering);
    const LuFactors got = lu_factorize(a, an);
    const LuFactors want = lu_factorize(permute_symmetric(a, an.colmap));
    EXPECT_EQ(got.row_perm, want.row_perm);
    EXPECT_EQ(got.lower.row_idx, want.lower.row_idx);
    EXPECT_EQ(got.lower.values, want.lower.values);
    EXPECT_EQ(got.upper_t.row_idx, want.upper_t.row_idx);
    EXPECT_EQ(got.upper_t.values, want.upper_t.values);
  }
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
  // Column-by-column oracle: the column's reach, and a dense solve.
  ReachSolver reach(f.lower);
  for (index_t j = 0; j < 13; ++j) {
    const auto pat = reach.reach(b.col_rows(j));
    std::vector<value_t> x(60, 0.0);
    for (std::size_t k = 0; k < b.col_rows(j).size(); ++k) {
      x[b.col_rows(j)[k]] = b.col_vals(j)[k];
    }
    lower_solve_dense(f.lower, x, /*unit_diag=*/true);
    const auto sol_rows = blocked.solution.col_rows(j);
    const auto sol_vals = blocked.solution.col_vals(j);
    ASSERT_EQ(sol_rows.size(), pat.size()) << "col " << j;
    for (std::size_t k = 0; k < pat.size(); ++k) {
      EXPECT_EQ(sol_rows[k], pat[k]);
      EXPECT_NEAR(sol_vals[k], x[pat[k]], 1e-12);
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

// symbolic_solve_patterns runs the blocked solve's symbolic step on blocks
// of 64 columns: each column's pattern is its own reach, for a single block,
// a full word, one column past it and a last block of one column.
TEST(MultiRhs, SymbolicPatternsMatchSolver) {
  Rng rng(59);
  const CsrMatrix a = testing::random_pattern_symmetric(40, 0.12, rng);
  const LuFactors f = lu_factorize(a);
  ReachSolver reach(f.lower);
  for (const index_t m : {6, 64, 65, 129}) {
    const CscMatrix b = csr_to_csc(testing::random_sparse(40, m, 0.1, rng));
    const auto patterns = symbolic_solve_patterns(f.lower, b);
    ASSERT_EQ(patterns.size(), static_cast<std::size_t>(m));
    for (index_t j = 0; j < m; ++j) {
      const auto pat = reach.reach(b.col_rows(j));
      EXPECT_TRUE(std::equal(pat.begin(), pat.end(), patterns[j].begin(),
                             patterns[j].end()))
          << m << " columns, column " << j;
    }
  }
}

// The blocked solve finds each block's union with one reach and each
// column's pattern through per-row column bitmasks: the patterns must equal
// the per-column reach at every block size, across the 64-column words.
TEST(MultiRhs, BlockPatternsEqualSymbolicAcrossWordBoundaries) {
  Rng rng(71);
  const CsrMatrix a = testing::random_pattern_symmetric(300, 0.01, rng);
  const LuFactors f = lu_factorize(a);
  const index_t m = 150;
  const CscMatrix b = csr_to_csc(testing::random_sparse(300, m, 0.01, rng));
  std::vector<std::vector<index_t>> patterns(m);
  ReachSolver reach(f.lower);
  for (index_t j = 0; j < m; ++j) {
    const auto pat = reach.reach(b.col_rows(j));
    patterns[j].assign(pat.begin(), pat.end());
  }
  long long pattern_nnz = 0;
  for (const auto& p : patterns) pattern_nnz += static_cast<long long>(p.size());
  std::vector<index_t> order(m);
  std::iota(order.begin(), order.end(), 0);
  for (index_t i = m - 1; i > 0; --i) {
    std::swap(order[i], order[rng.bounded(static_cast<std::uint64_t>(i) + 1)]);
  }
  const MultiRhsResult one = solve_multi_rhs_blocked(f.lower, b, order, 1);
  for (const index_t bs : {1, 60, 64, 65, 130}) {
    const MultiRhsResult r = solve_multi_rhs_blocked(f.lower, b, order, bs);
    EXPECT_EQ(r.stats.pattern_nnz, pattern_nnz) << "block " << bs;
    for (index_t j = 0; j < m; ++j) {
      const auto rows = r.solution.col_rows(j);
      ASSERT_TRUE(std::equal(rows.begin(), rows.end(),
                             patterns[order[j]].begin(),
                             patterns[order[j]].end()))
          << "block " << bs << " col " << j;
      // Padding subtracts ±0 terms, which may flip the sign of a zero only.
      const auto vals = r.solution.col_vals(j);
      const auto ref = one.solution.col_vals(j);
      EXPECT_TRUE(std::equal(vals.begin(), vals.end(), ref.begin(), ref.end()))
          << "block " << bs << " col " << j;
    }
  }
}

// A sparse right-hand side's rows in factor order: row k holds the row
// colmap[row_perm[k]], as a COO remap would place it.
TEST(MultiRhs, RhsInFactorOrderMatchesCooRemap) {
  Rng rng(83);
  const index_t n = 70;
  const CsrMatrix b = testing::random_sparse(n, 25, 0.08, rng);
  std::vector<index_t> colmap(n), row_perm(n);
  std::iota(colmap.begin(), colmap.end(), 0);
  std::iota(row_perm.begin(), row_perm.end(), 0);
  for (index_t i = n - 1; i > 0; --i) {
    std::swap(colmap[i], colmap[rng.bounded(static_cast<std::uint64_t>(i) + 1)]);
    std::swap(row_perm[i],
              row_perm[rng.bounded(static_cast<std::uint64_t>(i) + 1)]);
  }
  std::vector<index_t> new_of(n);
  for (index_t k = 0; k < n; ++k) new_of[colmap[row_perm[k]]] = k;
  CooMatrix coo(n, b.cols);
  for (index_t i = 0; i < n; ++i) {
    for (index_t q = b.row_ptr[i]; q < b.row_ptr[i + 1]; ++q) {
      coo.add(new_of[i], b.col_idx[q], b.values[q]);
    }
  }
  const CscMatrix want = coo_to_csc(coo);
  const CscMatrix got = rhs_in_factor_order(b, colmap, row_perm);
  EXPECT_EQ(got.col_ptr, want.col_ptr);
  EXPECT_EQ(got.row_idx, want.row_idx);
  EXPECT_EQ(got.values, want.values);
}

// An entry of a column's reach whose value cancels to exactly 0.0 stays in
// that column's pattern: patterns come from the structure, not the numbers.
TEST(MultiRhs, CancelledEntryStaysInPattern) {
  // Unit lower L with every entry 1: for b = e0, x = (1, −1, (0 − 1) + 1).
  CscMatrix l(3, 3);
  l.col_ptr = {0, 3, 5, 6};
  l.row_idx = {0, 1, 2, 1, 2, 2};
  l.values = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  CscMatrix b(3, 3);  // columns e0, e2, e1
  b.col_ptr = {0, 1, 2, 3};
  b.row_idx = {0, 2, 1};
  b.values = {1.0, 1.0, 1.0};
  const std::vector<index_t> order = {0, 1, 2};
  for (const index_t bs : {1, 2, 3}) {
    const MultiRhsResult r = solve_multi_rhs_blocked(l, b, order, bs);
    EXPECT_EQ(r.stats.pattern_nnz, 6) << "block " << bs;
    EXPECT_EQ(r.solution.col_ptr, (std::vector<index_t>{0, 3, 4, 6}));
    EXPECT_EQ(r.solution.row_idx, (std::vector<index_t>{0, 1, 2, 2, 1, 2}));
    ASSERT_EQ(r.solution.values.size(), 6u);
    EXPECT_EQ(r.solution.values[2], 0.0) << "block " << bs;
    EXPECT_EQ(r.solution.values[1], -1.0) << "block " << bs;
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

}  // namespace
}  // namespace pdslin
