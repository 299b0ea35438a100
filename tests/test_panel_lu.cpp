// Tests for the supernodal panel LU kernel (direct/panel_lu): bitwise
// equivalence with the scalar Gilbert–Peierls reference, parallel == serial
// determinism, row pivoting inside the dense tail, scalar fallback on pivot
// deviation before the tail, singularity, zero multipliers and non-finite
// values, the relaxed-amalgamation and width-cap knobs, the fp32 rung with
// iterative refinement, and the serve-layer byte accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "core/schur_solver.hpp"
#include "direct/level_solve.hpp"
#include "direct/lu.hpp"
#include "direct/mindeg.hpp"
#include "direct/supernodes.hpp"
#include "direct/symbolic.hpp"
#include "direct/trisolve.hpp"
#include "sparse/ops.hpp"
#include "sparse/permute.hpp"
#include "sparse/symmetrize.hpp"
#include "test_util.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pdslin {
namespace {

using testing::to_dense;

void expect_factors_bitwise(const LuFactors& a, const LuFactors& b,
                            const char* what) {
  ASSERT_EQ(a.n, b.n) << what;
  EXPECT_EQ(a.row_perm, b.row_perm) << what;
  ASSERT_EQ(a.lower.col_ptr, b.lower.col_ptr) << what;
  ASSERT_EQ(a.lower.row_idx, b.lower.row_idx) << what;
  ASSERT_EQ(a.upper.col_ptr, b.upper.col_ptr) << what;
  ASSERT_EQ(a.upper.row_idx, b.upper.row_idx) << what;
  ASSERT_EQ(a.lower.values.size(), b.lower.values.size()) << what;
  ASSERT_EQ(a.upper.values.size(), b.upper.values.size()) << what;
  // memcmp, not ==: bitwise means bitwise (0.0 vs -0.0 must not slip by).
  EXPECT_EQ(0, std::memcmp(a.lower.values.data(), b.lower.values.data(),
                           a.lower.values.size() * sizeof(value_t)))
      << what;
  EXPECT_EQ(0, std::memcmp(a.upper.values.data(), b.upper.values.data(),
                           a.upper.values.size() * sizeof(value_t)))
      << what;
}

/// ‖L·U − P·A‖_max via the dense oracle.
double dense_lu_residual(const CsrMatrix& a, const LuFactors& f) {
  const auto l = to_dense(f.lower);
  const auto u = to_dense(f.upper);
  const auto ad = to_dense(a);
  double worst = 0.0;
  for (index_t i = 0; i < f.n; ++i) {
    for (index_t j = 0; j < f.n; ++j) {
      value_t lu = 0.0;
      for (index_t k = 0; k < f.n; ++k) lu += l[i][k] * u[k][j];
      worst = std::max(worst, std::abs(lu - ad[f.row_perm[i]][j]));
    }
  }
  return worst;
}

CsrMatrix ordered_matrix(const CsrMatrix& a) {
  const auto perm = minimum_degree_ordering(symmetrize_abs(pattern_of(a)));
  return permute_symmetric(a, perm);
}

/// First column of the dense tail: the trailing columns whose symbolic
/// Cholesky columns (of the symmetrized pattern) are full to the bottom.
index_t dense_tail_start(const CsrMatrix& a) {
  const SymbolicFactor sf = symbolic_cholesky(symmetrize_abs(pattern_of(a)));
  index_t t = a.rows;
  while (t > 0 && sf.col_counts[t - 1] == a.rows - t + 1) --t;
  return t;
}

/// First column whose pivot row is not its diagonal (n if none).
index_t first_deviation(const LuFactors& f) {
  for (index_t k = 0; k < f.n; ++k) {
    if (f.row_perm[k] != k) return k;
  }
  return f.n;
}

/// A diagonally dominant sparse block bordered by `m` dense rows and
/// columns, weakly coupled to it, whose own diagonal is tiny: threshold
/// pivoting keeps every diagonal before the border and leaves it inside,
/// where the symbolic factor is dense.
CsrMatrix bordered_indefinite(index_t n1, index_t m, Rng& rng) {
  const CsrMatrix block = testing::random_pattern_symmetric(n1, 0.1, rng);
  CooMatrix coo(n1 + m, n1 + m);
  for (index_t i = 0; i < n1; ++i) {
    for (index_t p = block.row_ptr[i]; p < block.row_ptr[i + 1]; ++p) {
      coo.add(i, block.col_idx[p], block.values[p]);
    }
  }
  for (index_t b = n1; b < n1 + m; ++b) {
    for (index_t j = 0; j < n1 + m; ++j) {
      if (j == b) {
        coo.add(b, b, 1e-3 * rng.uniform(-1.0, 1.0));
      } else if (j >= n1) {
        coo.add(b, j, rng.uniform(-1.0, 1.0));
      } else if (rng.uniform() < 0.5) {
        coo.add(b, j, 0.1 * rng.uniform(-1.0, 1.0));
        coo.add(j, b, 0.1 * rng.uniform(-1.0, 1.0));
      }
    }
  }
  return coo_to_csr(coo);
}

TEST(PanelLu, BitwiseMatchesScalar) {
  Rng rng(42);
  for (const index_t n : {16, 40, 90}) {
    for (int rep = 0; rep < 3; ++rep) {
      const CsrMatrix a =
          ordered_matrix(testing::random_pattern_symmetric(n, 0.12, rng));
      LuOptions scalar;
      scalar.kernel = LuKernel::Scalar;
      LuOptions panel;
      panel.kernel = LuKernel::Panel;
      const LuFactors fs = lu_factorize(a, scalar);
      const LuFactors fp = lu_factorize(a, panel);
      expect_factors_bitwise(fs, fp, "scalar vs panel");
      EXPECT_TRUE(fp.stats.used_panel);
      EXPECT_GT(fp.stats.panel_count, 0);
    }
  }
}

TEST(PanelLu, FactorsSatisfyResidual) {
  const CsrMatrix a = ordered_matrix(testing::grid_laplacian(8, 8));
  LuOptions panel;
  panel.kernel = LuKernel::Panel;
  const LuFactors f = lu_factorize(a, panel);
  EXPECT_TRUE(f.stats.used_panel);
  EXPECT_LT(dense_lu_residual(a, f), 1e-10);
}

TEST(PanelLu, ParallelBitwiseIdenticalToSerial) {
  Rng rng(7);
  const CsrMatrix a =
      ordered_matrix(testing::random_pattern_symmetric(120, 0.06, rng));
  LuOptions serial;
  serial.kernel = LuKernel::Panel;
  serial.threads = 1;
  const LuFactors f1 = lu_factorize(a, serial);
  for (const unsigned t : {2u, 4u, 8u}) {
    LuOptions par = serial;
    par.threads = t;
    const LuFactors ft = lu_factorize(a, par);
    expect_factors_bitwise(f1, ft, "panel serial vs parallel");
  }
}

TEST(PanelLu, FallbackOnPivotDeviationMatchesScalar) {
  // Classic partial pivoting (pivot_tol = 1) on a matrix without diagonal
  // dominance: some column's largest entry is off-diagonal, the panel
  // attempt aborts, and the scalar kernel must produce identical factors.
  Rng rng(11);
  const CsrMatrix a =
      ordered_matrix(testing::random_pattern_symmetric(60, 0.15, rng,
                                                       /*diag_boost=*/0.0));
  for (const bool fp32 : {false, true}) {
    LuOptions scalar;
    scalar.kernel = LuKernel::Scalar;
    scalar.pivot_tol = 1.0;
    LuOptions panel = scalar;
    panel.kernel = LuKernel::Panel;
    panel.panel_fp32 = fp32;
    panel.threads = 3;
    const LuFactors fs = lu_factorize(a, scalar);
    const LuFactors fp = lu_factorize(a, panel);
    // The first deviation must precede the dense tail: inside it the panel
    // kernel pivots itself and there would be no fallback to test.
    ASSERT_LT(first_deviation(fs), dense_tail_start(a));
    ASSERT_FALSE(fp.stats.used_panel)
        << "expected a pivot deviation to force the scalar fallback";
    expect_factors_bitwise(fs, fp, "fallback vs scalar");
  }
}

TEST(PanelLu, DenseTailPivotMatchesScalar) {
  Rng rng(21);
  const CsrMatrix a = bordered_indefinite(60, 12, rng);
  LuOptions scalar;
  scalar.kernel = LuKernel::Scalar;
  const LuFactors fs = lu_factorize(a, scalar);
  const index_t tail = dense_tail_start(a);
  ASSERT_LE(tail, first_deviation(fs)) << "every deviation must be in the tail";
  ASSERT_LT(first_deviation(fs), fs.n) << "expected off-diagonal pivots";

  LuOptions panel = scalar;
  panel.kernel = LuKernel::Panel;
  panel.panel_max_width = 4;  // several tail blocks: exercises the GEMM
  for (const unsigned t : {1u, 2u, 4u}) {
    panel.threads = t;
    const LuFactors fp = lu_factorize(a, panel);
    EXPECT_TRUE(fp.stats.used_panel) << "threads=" << t;
    EXPECT_EQ(fp.stats.tail_cols, a.rows - tail);
    EXPECT_GT(fp.stats.tail_pivots, 0);
    EXPECT_LE(fp.stats.max_width, 4);
    expect_factors_bitwise(fs, fp, "tail-pivoted panel vs scalar");
  }

  // The fp32 rung sends every off-diagonal pivot to the fp64 scalar kernel.
  panel.panel_fp32 = true;
  const LuFactors f32 = lu_factorize(a, panel);
  EXPECT_FALSE(f32.stats.used_panel);
  expect_factors_bitwise(fs, f32, "fp32 fallback vs scalar");
}

TEST(PanelLu, DenseTailPivotTieGoesToSmallestOriginalRow) {
  // Structurally dense, so the whole matrix is the tail. Column 0 pivots on
  // row 3, which moves row 0 to position 3. Column 1 then rejects its tiny
  // diagonal and finds |−1| (row 0, position 3) tied with |1| (row 2,
  // position 2): the scalar kernel takes the smaller original row, 0.
  const testing::Dense d = {{1e-3, -1.0, 2.0, 3.0},
                            {0.0, 1e-3, 5.0, 7.0},
                            {0.0, 1.0, 11.0, 13.0},
                            {1.0, 0.0, 17.0, 23.0}};
  CooMatrix coo(4, 4);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 4; ++j) coo.add(i, j, d[i][j]);  // zeros kept
  }
  const CsrMatrix a = coo_to_csr(coo);
  ASSERT_EQ(dense_tail_start(a), 0);
  LuOptions scalar;
  scalar.kernel = LuKernel::Scalar;
  LuOptions panel;
  panel.kernel = LuKernel::Panel;
  const LuFactors fs = lu_factorize(a, scalar);
  const LuFactors fp = lu_factorize(a, panel);
  ASSERT_EQ(fs.row_perm[1], 0);
  EXPECT_TRUE(fp.stats.used_panel);
  expect_factors_bitwise(fs, fp, "tied tail pivot");
}

TEST(PanelLu, LevelSetSolveOnTailPivotedFactorBitwise) {
  Rng rng(5);
  const CsrMatrix a = bordered_indefinite(80, 16, rng);
  LuOptions opt;
  opt.kernel = LuKernel::Panel;
  opt.panel_max_width = 8;
  const LuFactors f = lu_factorize(a, opt);
  ASSERT_TRUE(f.stats.used_panel);
  ASSERT_GT(f.stats.tail_pivots, 0);

  std::vector<value_t> b(a.rows), xs(a.rows), xl(a.rows);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  lu_solve(f, b, xs);
  EXPECT_LT(residual_norm(a, xs, b) / norm2(b), 1e-10);
  const auto sched = build_trisolve_schedules(f);
  for (const unsigned t : {1u, 3u}) {
    lu_solve_scheduled(f, *sched, b, xl, t);
    EXPECT_EQ(0, std::memcmp(xs.data(), xl.data(), xs.size() * sizeof(value_t)))
        << "level-set threads=" << t;
  }
}

TEST(PanelLu, ZeroMultiplierAndNonFiniteMatchScalar) {
  // Regression: the scalar kernel stores an L multiplier x/pv that rounds
  // to zero (x tiny, pv huge), which packed extraction would drop, and a
  // planted inf makes padding products 0·inf = NaN the scalar kernel never
  // forms. Both must send the panel attempt to the scalar kernel.
  auto both = [](const CsrMatrix& a, const char* what) {
    LuOptions scalar;
    scalar.kernel = LuKernel::Scalar;
    LuOptions panel;
    panel.kernel = LuKernel::Panel;
    std::optional<LuFactors> fs, fp;
    try { fs = lu_factorize(a, scalar); } catch (const Error&) {}
    try { fp = lu_factorize(a, panel); } catch (const Error&) {}
    ASSERT_EQ(fs.has_value(), fp.has_value()) << what;
    if (fs) expect_factors_bitwise(*fs, *fp, what);
  };
  // Columns 0–2 amalgamate into one panel whose slot (2, 0) is padding, so
  // column 1's update forms 0·inf = NaN at row 2. The scalar kernel never
  // touches row 2 there and stores its multiplier −1/−inf = −0; the panel
  // attempt holds NaN/−inf = NaN, which only the non-finite guard catches.
  const value_t inf = std::numeric_limits<value_t>::infinity();
  both(testing::from_dense({{4.0, inf, 0.0, 0.0},
                            {1.0, 4.0, 0.0, 0.0},
                            {0.0, -1.0, 4.0, 0.0},
                            {0.0, 0.0, 0.0, 4.0}}),
       "padding times inf");
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    CsrMatrix a =
        ordered_matrix(testing::random_pattern_symmetric(30, 0.15, rng));
    CsrMatrix scaled = a;
    for (index_t i = 0; i < a.rows; ++i) {
      const bool huge_diag = rng.uniform() < 0.3;
      for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
        if (a.col_idx[p] == i) {
          if (huge_diag) scaled.values[p] *= 1e300;
        } else if (rng.uniform() < 0.3) {
          scaled.values[p] *= 1e-30;
        }
      }
    }
    both(scaled, "extreme scaling");
    a.values[rng.bounded(a.values.size())] = inf;
    both(a, "planted inf");
  }
}

TEST(PanelLu, SingularThrowsLikeScalar) {
  // Exactly repeated row → elimination cancels it to exact zeros → both
  // kernels must refuse the zero pivot (the panel path via its fallback).
  Rng rng(3);
  testing::Dense d(8, std::vector<value_t>(8, 0.0));
  for (auto& row : d) {
    for (auto& v : row) v = rng.uniform(-1.0, 1.0);
  }
  d[5] = d[2];
  const CsrMatrix a = testing::from_dense(d);
  LuOptions scalar;
  scalar.kernel = LuKernel::Scalar;
  LuOptions panel;
  panel.kernel = LuKernel::Panel;
  EXPECT_THROW(lu_factorize(a, scalar), Error);
  EXPECT_THROW(lu_factorize(a, panel), Error);
}

TEST(PanelLu, WidthCapAndRelaxationKnobs) {
  const CsrMatrix a = ordered_matrix(testing::grid_laplacian(12, 12));
  LuOptions scalar;
  scalar.kernel = LuKernel::Scalar;
  const LuFactors fs = lu_factorize(a, scalar);

  LuOptions capped;
  capped.kernel = LuKernel::Panel;
  capped.panel_max_width = 4;
  const LuFactors fc = lu_factorize(a, capped);
  EXPECT_TRUE(fc.stats.used_panel);
  EXPECT_LE(fc.stats.max_width, 4);
  expect_factors_bitwise(fs, fc, "width cap");

  LuOptions fundamental = capped;
  fundamental.panel_max_width = 32;
  fundamental.panel_relax = 0.0;
  const LuFactors ff = lu_factorize(a, fundamental);
  LuOptions relaxed = fundamental;
  relaxed.panel_relax = 0.5;
  const LuFactors fr = lu_factorize(a, relaxed);
  // Relaxation only merges panels: never narrower, numerics untouched.
  EXPECT_GE(fr.stats.avg_width, ff.stats.avg_width);
  EXPECT_LE(fr.stats.panel_count, ff.stats.panel_count);
  expect_factors_bitwise(fs, ff, "fundamental supernodes");
  expect_factors_bitwise(fs, fr, "relaxed amalgamation");

  LuOptions unlimited = fundamental;
  unlimited.panel_max_width = 0;  // 0 = no cap
  expect_factors_bitwise(fs, lu_factorize(a, unlimited), "unlimited width");
}

TEST(PanelLu, Fp32RungRefinesToFp64) {
  const CsrMatrix a = ordered_matrix(testing::grid_laplacian(12, 12));
  LuOptions opt;
  opt.kernel = LuKernel::Panel;
  opt.panel_fp32 = true;
  opt.threads = 2;
  const LuFactors f = lu_factorize(a, opt);
  EXPECT_TRUE(f.stats.used_panel);

  Rng rng(99);
  std::vector<value_t> b(a.rows), x(a.rows, 0.0);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  // Plain solve with fp32 factors: ~single-precision relative residual.
  lu_solve(f, b, x);
  const double raw = residual_norm(a, x, b) / norm2(b);
  EXPECT_LT(raw, 1e-4);
  // Iterative refinement gated on the fp64 true residual recovers fp64.
  LuRefineOptions ropt;
  ropt.rel_tol = 1e-12;
  const LuRefineResult res = lu_solve_refined(f, a, b, x, ropt);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.rel_residual, 1e-12);
  EXPECT_GT(res.iterations, 0);
  EXPECT_LT(residual_norm(a, x, b) / norm2(b), 1e-11);
}

TEST(PanelLu, MemoryBytesCoversPanelMetadata) {
  const CsrMatrix a = ordered_matrix(testing::grid_laplacian(8, 8));
  LuOptions scalar;
  scalar.kernel = LuKernel::Scalar;
  LuOptions panel;
  panel.kernel = LuKernel::Panel;
  const LuFactors fs = lu_factorize(a, scalar);
  const LuFactors fp = lu_factorize(a, panel);
  // Same CSC factors, but the panel result additionally owns the supernode
  // partition — the serve cache must account for it.
  EXPECT_GT(fp.memory_bytes(), fs.memory_bytes());
  EXPECT_GE(fs.memory_bytes(),
            fs.lower.values.size() * sizeof(value_t) +
                fs.upper.values.size() * sizeof(value_t));
}

TEST(PanelLu, FullSolveBitwiseAcrossKernels) {
  const CsrMatrix a = testing::grid_laplacian(10, 10);
  Rng rng(5);
  std::vector<value_t> b(a.rows);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);

  auto solve_with = [&](LuKernel kernel, unsigned inner) {
    SolverOptions opt;
    opt.num_subdomains = 4;
    opt.assembly.lu.kernel = kernel;
    opt.assembly.inner_threads = inner;
    SchurSolver solver(a, opt);
    solver.setup();
    solver.factor();
    std::vector<value_t> x(a.rows, 0.0);
    solver.solve(b, x);
    return x;
  };
  const std::vector<value_t> xs = solve_with(LuKernel::Scalar, 1);
  const std::vector<value_t> xp = solve_with(LuKernel::Panel, 1);
  const std::vector<value_t> xp4 = solve_with(LuKernel::Panel, 4);
  ASSERT_EQ(xs.size(), xp.size());
  EXPECT_EQ(0, std::memcmp(xs.data(), xp.data(), xs.size() * sizeof(value_t)));
  EXPECT_EQ(0, std::memcmp(xs.data(), xp4.data(), xs.size() * sizeof(value_t)));
}

TEST(Supernodes, AverageWidthOfEmptyFactorIsOne) {
  // Regression: callers divide by average_width(); an empty factor must
  // report the neutral width 1.0, not 0.0.
  const Supernodes empty;
  EXPECT_EQ(empty.average_width(), 1.0);
}

}  // namespace
}  // namespace pdslin
