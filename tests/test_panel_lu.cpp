// Tests for the supernodal panel LU kernel (direct/panel_lu): bitwise
// equivalence with the scalar Gilbert–Peierls reference, parallel == serial
// determinism, row pivoting inside the dense tail, scalar fallback on pivot
// deviation before the tail, singularity, zero multipliers and non-finite
// values, the relaxed-amalgamation and width-cap knobs, and the serve-layer
// byte accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "core/schur_solver.hpp"
#include "direct/kernels.hpp"
#include "direct/lu.hpp"
#include "direct/mindeg.hpp"
#include "direct/reach.hpp"
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
  ASSERT_EQ(a.upper_t.col_ptr, b.upper_t.col_ptr) << what;
  ASSERT_EQ(a.upper_t.row_idx, b.upper_t.row_idx) << what;
  ASSERT_EQ(a.lower.values.size(), b.lower.values.size()) << what;
  ASSERT_EQ(a.upper_t.values.size(), b.upper_t.values.size()) << what;
  // memcmp, not ==: bitwise means bitwise (0.0 vs -0.0 must not slip by).
  EXPECT_EQ(0, std::memcmp(a.lower.values.data(), b.lower.values.data(),
                           a.lower.values.size() * sizeof(value_t)))
      << what;
  EXPECT_EQ(0, std::memcmp(a.upper_t.values.data(), b.upper_t.values.data(),
                           a.upper_t.values.size() * sizeof(value_t)))
      << what;
}

/// ‖L·U − P·A‖_max via the dense oracle.
double dense_lu_residual(const CsrMatrix& a, const LuFactors& f) {
  const auto l = to_dense(f.lower);
  const auto ut = to_dense(f.upper_t);  // Uᵀ
  const auto ad = to_dense(a);
  double worst = 0.0;
  for (index_t i = 0; i < f.n; ++i) {
    for (index_t j = 0; j < f.n; ++j) {
      value_t lu = 0.0;
      for (index_t k = 0; k < f.n; ++k) lu += l[i][k] * ut[j][k];
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

/// `count` values of which about 15% are +0.0 and 10% are −0.0, so the
/// kernels' zero-coefficient skips run.
std::vector<value_t> values_with_zeros(std::size_t count, Rng& rng) {
  std::vector<value_t> v(count);
  for (value_t& x : v) {
    const double r = rng.uniform();
    x = r < 0.15 ? 0.0 : r < 0.25 ? -0.0 : rng.uniform(-1.0, 1.0);
  }
  return v;
}

bool bitwise_equal(const std::vector<value_t>& a,
                   const std::vector<value_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)) == 0;
}

/// Every path's kernel table this build and CPU have, baseline first.
std::vector<const panel::KernelTable*> kernel_paths() {
  std::vector<const panel::KernelTable*> paths;
  for (const auto p : {panel::KernelPath::Baseline, panel::KernelPath::Avx2}) {
    if (const panel::KernelTable* t = panel::kernel_table(p)) paths.push_back(t);
  }
  return paths;
}

// Each path's build of the dispatched kernels against the baseline's, on
// operands holding exact zeros and −0.0, at sizes that leave every vector
// remainder.
TEST(PanelLu, KernelPathsBitwiseEqual) {
  const auto paths = kernel_paths();
  ASSERT_NE(panel::kernel_table(panel::KernelPath::Baseline), nullptr);
  EXPECT_EQ(paths.size(), panel::kernel_path() == panel::KernelPath::Avx2 ? 2u : 1u);
  Rng rng(2024);
  for (int rep = 0; rep < 60; ++rep) {
    const auto w = static_cast<index_t>(1 + rng.bounded(9));
    const auto ncol = static_cast<index_t>(1 + rng.bounded(13));
    const auto ni = static_cast<index_t>(1 + rng.bounded(37));
    const auto tri0 = static_cast<index_t>(rng.bounded(4));
    const index_t nr = tri0 + w + ni;
    const auto pan = values_with_zeros(static_cast<std::size_t>(nr) * w, rng);
    const auto y0 = values_with_zeros(static_cast<std::size_t>(w) * ncol, rng);
    const auto c0 = values_with_zeros(static_cast<std::size_t>(ni) * ncol, rng);
    // A dense-tail panel (nr == tri0 + w) with a small diagonal, so rows
    // are exchanged.
    auto tail = values_with_zeros(static_cast<std::size_t>(tri0 + w) * w, rng);
    for (index_t j = 0; j < w; ++j) {
      tail[static_cast<std::size_t>(j) * (tri0 + w) + tri0 + j] *= 1e-3;
    }

    std::vector<std::vector<value_t>> out;
    std::vector<std::vector<index_t>> perms;
    std::vector<int> oks;
    for (const panel::KernelTable* t : paths) {
      std::vector<value_t> y = y0, c = c0, fd = pan, ft = tail;
      t->trsm(pan.data(), nr, tri0, w, y.data(), ncol);
      t->gemm(pan.data() + tri0 + w, nr, ni, w, y.data(), ncol, c.data(), ni);
      const bool ok_d =
          t->factorize(fd.data(), nr, tri0, w, 0, w, 0.1, 1e-300, nullptr);
      std::vector<index_t> perm(w);
      std::iota(perm.begin(), perm.end(), index_t{0});
      const bool ok_t = t->factorize(ft.data(), tri0 + w, tri0, w, 0, w, 0.1,
                                     1e-300, perm.data());
      out.insert(out.end(), {y, c, fd, ft});
      perms.push_back(perm);
      oks.push_back(int{ok_d} * 2 + int{ok_t});
    }
    for (std::size_t k = 1; k < paths.size(); ++k) {
      for (std::size_t o = 0; o < 4; ++o) {
        EXPECT_TRUE(bitwise_equal(out[o], out[4 * k + o]))
            << "rep " << rep << " output " << o;
      }
      EXPECT_EQ(perms[0], perms[k]) << "rep " << rep;
      EXPECT_EQ(oks[0], oks[k]) << "rep " << rep;
    }
  }

  // The multi-RHS block update, over the reach of a few seed rows of a
  // sparse factor, with block widths across the vector remainders.
  const CsrMatrix a =
      ordered_matrix(testing::random_pattern_symmetric(120, 0.03, rng));
  const LuFactors f = lu_factorize(a);
  ReachSolver reach(f.lower);
  std::vector<index_t> slot(a.rows, -1);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<index_t> seeds(1 + rng.bounded(6));
    for (index_t& r : seeds) r = static_cast<index_t>(rng.bounded(a.rows));
    const auto rr = reach.reach(seeds);
    const std::vector<index_t> rows(rr.begin(), rr.end());
    const auto u = static_cast<index_t>(rows.size());
    for (index_t s = 0; s < u; ++s) slot[rows[s]] = s;
    // Width 1 first: one-column blocks take their own scalar branch.
    const auto width =
        static_cast<index_t>(rep == 0 ? 1 : 1 + rng.bounded(70));
    const auto x0 = values_with_zeros(static_cast<std::size_t>(u) * width, rng);
    std::vector<std::vector<value_t>> xs;
    for (const panel::KernelTable* t : paths) {
      std::vector<value_t> x = x0;
      t->rhs_block(f.lower, rows.data(), u, slot.data(), x.data(), width);
      xs.push_back(std::move(x));
    }
    for (std::size_t k = 1; k < xs.size(); ++k) {
      EXPECT_TRUE(bitwise_equal(xs[0], xs[k])) << "rhs block rep " << rep;
    }
    for (const index_t r : rows) slot[r] = -1;
  }
}

// A dense matrix factored on each path exactly as the panel LU factors its
// dense tail (right-looking over blocks, left-looking inside, threshold row
// exchanges) reproduces the scalar kernel's factors bit for bit.
TEST(PanelLu, DenseFactorOnEachPathMatchesScalar) {
  Rng rng(77);
  for (const index_t n : {9, 37, 70}) {
    auto dense = values_with_zeros(static_cast<std::size_t>(n) * n, rng);
    for (index_t j = 0; j < n; ++j) {
      if (j % 3 == 0) dense[static_cast<std::size_t>(j) * n + j] *= 1e-3;
    }
    CooMatrix coo(n, n);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < n; ++i) {
        coo.add(i, j, dense[static_cast<std::size_t>(j) * n + i]);
      }
    }
    const CsrMatrix a = coo_to_csr(coo);
    LuOptions scalar;
    scalar.kernel = LuKernel::Scalar;
    const LuFactors fs = lu_factorize(a, scalar);
    ASSERT_LT(first_deviation(fs), n) << "n " << n << ": no row exchange";
    const auto l = to_dense(fs.lower);
    const auto ut = to_dense(fs.upper_t);

    for (const panel::KernelTable* t : kernel_paths()) {
      std::vector<value_t> pan = dense;
      std::vector<index_t> perm(n);
      std::iota(perm.begin(), perm.end(), index_t{0});
      constexpr index_t kBlock = 4;
      std::vector<value_t> y;
      for (index_t j0 = 0; j0 < n; j0 += kBlock) {
        const index_t j1 = std::min(n, j0 + kBlock);
        ASSERT_TRUE(t->factorize(pan.data(), n, 0, n, j0, j1, scalar.pivot_tol,
                                 scalar.min_pivot, perm.data()));
        const index_t rest = n - j1;
        if (rest == 0) break;
        const index_t bw = j1 - j0;
        y.assign(static_cast<std::size_t>(bw) * rest, 0.0);
        for (index_t k = 0; k < bw; ++k) {
          for (index_t q = 0; q < rest; ++q) {
            y[static_cast<std::size_t>(k) * rest + q] =
                pan[static_cast<std::size_t>(j1 + q) * n + j0 + k];
          }
        }
        value_t* blk = pan.data() + static_cast<std::size_t>(j0) * n;
        t->trsm(blk, n, j0, bw, y.data(), rest);
        for (index_t k = 0; k < bw; ++k) {
          for (index_t q = 0; q < rest; ++q) {
            pan[static_cast<std::size_t>(j1 + q) * n + j0 + k] =
                y[static_cast<std::size_t>(k) * rest + q];
          }
        }
        t->gemm(blk + j1, n, n - j1, bw, y.data(), rest,
                pan.data() + static_cast<std::size_t>(j1) * n + j1, n);
      }
      EXPECT_EQ(perm, fs.row_perm) << "n " << n;
      // Exact zeros are dropped from the stored factors, so a zero slot of
      // the panel (either sign) reads +0.0 there.
      for (index_t k = 0; k < n; ++k) {
        for (index_t i = 0; i < n; ++i) {
          const value_t pv = pan[static_cast<std::size_t>(k) * n + i];
          const value_t fv = i > k ? l[i][k] : ut[k][i];
          if (pv == 0.0) {
            EXPECT_EQ(fv, 0.0) << "n " << n << " (" << i << ", " << k << ")";
          } else {
            EXPECT_EQ(0, std::memcmp(&pv, &fv, sizeof pv))
                << "n " << n << " (" << i << ", " << k << ")";
          }
        }
      }
    }
  }
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
  LuOptions scalar;
  scalar.kernel = LuKernel::Scalar;
  scalar.pivot_tol = 1.0;
  LuOptions panel = scalar;
  panel.kernel = LuKernel::Panel;
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

TEST(PanelLu, SolveOnTailPivotedFactorHasSmallResidual) {
  Rng rng(5);
  const CsrMatrix a = bordered_indefinite(80, 16, rng);
  LuOptions opt;
  opt.kernel = LuKernel::Panel;
  opt.panel_max_width = 8;
  const LuFactors f = lu_factorize(a, opt);
  ASSERT_TRUE(f.stats.used_panel);
  ASSERT_GT(f.stats.tail_pivots, 0);

  std::vector<value_t> b(a.rows), xs(a.rows);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  lu_solve(f, b, xs);
  EXPECT_LT(residual_norm(a, xs, b) / norm2(b), 1e-10);
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

TEST(PanelLu, MemoryBytesEqualAcrossKernels) {
  const CsrMatrix a = ordered_matrix(testing::grid_laplacian(8, 8));
  LuOptions scalar;
  scalar.kernel = LuKernel::Scalar;
  LuOptions panel;
  panel.kernel = LuKernel::Panel;
  const LuFactors fs = lu_factorize(a, scalar);
  const LuFactors fp = lu_factorize(a, panel);
  // The panel kernel keeps nothing beside the factors: its packed panels
  // and panel partition are transient, so both kernels charge the same.
  EXPECT_EQ(fp.memory_bytes(), fs.memory_bytes());
  EXPECT_GE(fs.memory_bytes(),
            fs.lower.values.size() * sizeof(value_t) +
                fs.upper_t.values.size() * sizeof(value_t));
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
