// Tests for the supernodal panel LU kernel (direct/panel_lu): bitwise
// equivalence with the scalar Gilbert–Peierls reference, row pivoting
// inside the dense region, scalar fallback on pivot deviation before it,
// singularity, zero multipliers and non-finite values, the width cap and
// relaxation (parameters of the panel kernel's own entry point), the
// AVX2 register tile, the BlockLuFactors the kernel writes, the
// serve-layer byte accounting, and the per-factor kernel invariant of the
// differential checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "check/invariants.hpp"
#include "core/schur_solver.hpp"
#include "direct/kernels.hpp"
#include "direct/lu.hpp"
#include "direct/mindeg.hpp"
#include "direct/panel_lu.hpp"
#include "direct/reach.hpp"
#include "direct/supernodes.hpp"
#include "direct/symbolic.hpp"
#include "direct/trisolve.hpp"
#include "obs/metrics.hpp"
#include "sparse/convert.hpp"
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

/// The scalar reference kernel on CSR input.
LuFactors scalar_of(const CsrMatrix& a, const LuOptions& opt = {}) {
  return scalar_lu_factorize(csr_to_csc(a), opt);
}

/// The panel kernel alone, without the scalar fallback, at an explicit
/// width cap and relaxation, on `a` in its own order.
std::optional<LuFactors> panel_of(const CsrMatrix& a,
                                  index_t width = kPanelMaxWidth,
                                  double relax = kPanelRelax,
                                  const LuOptions& opt = {}) {
  return panel_lu_factorize(csr_to_csc(a),
                            analyze_pattern(a, FillOrdering::Given), opt,
                            width, relax);
}

CsrMatrix ordered_matrix(const CsrMatrix& a) {
  return permute_symmetric(
      a, analyze_pattern(a, FillOrdering::MinimumDegree).colmap);
}

/// First column of the panel kernel's dense region: the byte rule on the
/// symbolic Cholesky column counts of the symmetrized pattern, L's column
/// and U's row each col_counts[j] entries.
index_t dense_region_of(const CsrMatrix& a) {
  const SymbolicFactor sf = analyze_pattern(a, FillOrdering::Given).symbolic;
  std::vector<index_t> entries(sf.col_counts.size());
  for (std::size_t j = 0; j < entries.size(); ++j) {
    entries[j] = 2 * sf.col_counts[j];
  }
  return dense_region_start(entries);
}

/// First column of the full tail: the trailing columns whose symbolic
/// columns are full to the bottom, where the dense region used to start.
index_t full_tail_start(const CsrMatrix& a) {
  const SymbolicFactor sf = analyze_pattern(a, FillOrdering::Given).symbolic;
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

using testing::kernel_paths;

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

/// C −= L·Y as the plain loop: each column takes its terms in ascending k
/// and skips a multiplier that is ±0.0.
void reference_gemm(const std::vector<value_t>& l, index_t ni, index_t w,
                    const std::vector<value_t>& y, index_t ncol,
                    std::vector<value_t>& c) {
  for (index_t q = 0; q < ncol; ++q) {
    for (index_t k = 0; k < w; ++k) {
      const value_t b = y[static_cast<std::size_t>(k) * ncol + q];
      if (b == 0.0) continue;
      for (index_t i = 0; i < ni; ++i) {
        c[static_cast<std::size_t>(q) * ni + i] -=
            l[static_cast<std::size_t>(k) * ni + i] * b;
      }
    }
  }
}

// The AVX2 path's 8 × 4 register tile and the baseline loop against the
// plain loop, at 8k−1, 8k and 8k+1 rows and 4k−1, 4k and 4k+1 columns, so
// every tile meets remainder rows and columns. Strips of four columns
// alternate between no zero multiplier and ±0.0 ones; C holds −0.0, and L
// holds ±∞ and NaN in rows that only zero multipliers reach, where the loop
// never forms 0·∞.
TEST(PanelLu, GemmTileMatchesLoop) {
  constexpr value_t inf = std::numeric_limits<value_t>::infinity();
  constexpr value_t nan = std::numeric_limits<value_t>::quiet_NaN();
  Rng rng(808);
  for (const index_t w : {1, 32}) {
    for (const index_t ni : {15, 16, 17, 23, 24, 25}) {
      for (const index_t ncol : {3, 4, 5, 7, 8, 9, 11, 12, 13}) {
        std::vector<value_t> l(static_cast<std::size_t>(ni) * w);
        std::vector<value_t> y(static_cast<std::size_t>(w) * ncol);
        std::vector<value_t> c0(static_cast<std::size_t>(ni) * ncol);
        for (value_t& v : l) v = rng.uniform(-1.0, 1.0);
        for (value_t& v : c0) v = rng.uniform() < 0.2 ? -0.0 : rng.uniform(-1.0, 1.0);
        for (index_t k = 0; k < w; ++k) {
          for (index_t q = 0; q < ncol; ++q) {
            // Strips 1, 3, … hold zero multipliers; strips 0, 2, … none.
            const bool zero = (q / 4) % 2 == 1 && rng.uniform() < 0.3;
            y[static_cast<std::size_t>(k) * ncol + q] =
                zero ? (rng.uniform() < 0.5 ? 0.0 : -0.0)
                     : rng.uniform(0.5, 1.0) * (rng.uniform() < 0.5 ? -1.0 : 1.0);
          }
        }
        // A term k whose multipliers are zero in the odd strips, and
        // whose column of L holds ±∞ and NaN in a few rows: those strips
        // must not take it, the others take it as the loop does.
        {
          const index_t k = static_cast<index_t>(rng.bounded(w));
          for (index_t q = 0; q < ncol; ++q) {
            if ((q / 4) % 2 == 1) {
              y[static_cast<std::size_t>(k) * ncol + q] = q % 2 ? -0.0 : 0.0;
            }
          }
          for (index_t i = 0; i < ni; i += 5) {
            l[static_cast<std::size_t>(k) * ni + i] =
                i % 3 == 0 ? inf : i % 3 == 1 ? -inf : nan;
          }
        }
        std::vector<value_t> want = c0;
        reference_gemm(l, ni, w, y, ncol, want);
        for (const panel::KernelTable* t : kernel_paths()) {
          std::vector<value_t> got = c0;
          t->gemm(l.data(), ni, ni, w, y.data(), ncol, got.data(), ni);
          EXPECT_TRUE(bitwise_equal(want, got))
              << "w " << w << ", ni " << ni << ", ncol " << ncol;
        }
      }
    }
  }
  // A leading dimension larger than the block, as in a panel: C and L are
  // blocks of taller arrays, and the rows outside them stay untouched.
  for (const panel::KernelTable* t : kernel_paths()) {
    constexpr index_t ni = 19, w = 5, ncol = 6, ld = 27;
    std::vector<value_t> l(static_cast<std::size_t>(ld) * w);
    std::vector<value_t> y(static_cast<std::size_t>(w) * ncol);
    std::vector<value_t> c(static_cast<std::size_t>(ld) * ncol);
    for (value_t& v : l) v = rng.uniform(-1.0, 1.0);
    for (value_t& v : y) v = rng.uniform() < 0.1 ? 0.0 : rng.uniform(-1.0, 1.0);
    for (value_t& v : c) v = rng.uniform(-1.0, 1.0);
    std::vector<value_t> lb(static_cast<std::size_t>(ni) * w);
    std::vector<value_t> want(static_cast<std::size_t>(ni) * ncol);
    for (index_t k = 0; k < w; ++k) {
      for (index_t i = 0; i < ni; ++i) lb[k * ni + i] = l[k * ld + 3 + i];
    }
    for (index_t q = 0; q < ncol; ++q) {
      for (index_t i = 0; i < ni; ++i) want[q * ni + i] = c[q * ld + 3 + i];
    }
    reference_gemm(lb, ni, w, y, ncol, want);
    std::vector<value_t> got = c;
    t->gemm(l.data() + 3, ld, ni, w, y.data(), ncol, got.data() + 3, ld);
    for (index_t q = 0; q < ncol; ++q) {
      for (index_t i = 0; i < ld; ++i) {
        const bool inside = i >= 3 && i < 3 + ni;
        const value_t e = inside ? want[q * ni + i - 3] : c[q * ld + i];
        EXPECT_EQ(0, std::memcmp(&e, &got[q * ld + i], sizeof e))
            << "ld rows: (" << i << ", " << q << ")";
      }
    }
  }
}

// A dense matrix factored on each path exactly as the panel LU factors its
// dense region (right-looking over blocks, left-looking inside, threshold row
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
    const LuOptions scalar;
    const LuFactors fs = scalar_of(a, scalar);
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
      const LuFactors fs = scalar_of(a);
      const LuFactors fp = lu_factorize(a);
      expect_factors_bitwise(fs, fp, "scalar vs panel");
      EXPECT_TRUE(fp.stats.used_panel);
      EXPECT_GT(fp.stats.panel_count, 0);
    }
  }
}

TEST(PanelLu, FactorsSatisfyResidual) {
  const CsrMatrix a = ordered_matrix(testing::grid_laplacian(8, 8));
  const LuFactors f = lu_factorize(a);
  EXPECT_TRUE(f.stats.used_panel);
  EXPECT_LT(dense_lu_residual(a, f), 1e-10);
}

TEST(PanelLu, FallbackOnPivotDeviationMatchesScalar) {
  // Classic partial pivoting (pivot_tol = 1) on a matrix without diagonal
  // dominance: some column's largest entry is off-diagonal, the panel
  // attempt aborts, and the scalar kernel must produce identical factors.
  Rng rng(11);
  const CsrMatrix a =
      ordered_matrix(testing::random_pattern_symmetric(60, 0.15, rng,
                                                       /*diag_boost=*/0.0));
  LuOptions opt;
  opt.pivot_tol = 1.0;
  const LuFactors fs = scalar_of(a, opt);
  const LuFactors fp = lu_factorize(a, opt);
  // The first deviation must precede the dense region: inside it the panel
  // kernel pivots itself and there would be no fallback to test.
  ASSERT_LT(first_deviation(fs), dense_region_of(a));
  ASSERT_FALSE(fp.stats.used_panel)
      << "expected a pivot deviation to force the scalar fallback";
  expect_factors_bitwise(fs, fp, "fallback vs scalar");
}

/// bordered_indefinite with one below-diagonal entry of a column between
/// the dense region's start and the full tail made large: threshold
/// pivoting then leaves the diagonal there, after the region starts but
/// before the symbolic columns are full.
CsrMatrix pivot_before_full_tail(Rng& rng) {
  CsrMatrix a = bordered_indefinite(60, 12, rng);
  const index_t region = dense_region_of(a), tail = full_tail_start(a);
  for (index_t j = (region + tail) / 2; j < tail; ++j) {
    for (index_t i = j + 1; i < a.rows; ++i) {
      for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
        if (a.col_idx[p] == j) {
          a.values[p] = 1e3;
          return a;
        }
      }
    }
  }
  return a;
}

// The dense region starts at the byte rule, before the full tail: a pivot
// that leaves the diagonal between the two stays on the panel path (the
// full-tail rule sent it to the scalar kernel), bitwise the scalar factors.
TEST(PanelLu, PivotInsideDenseRegionBeforeFullTailStaysOnPanelPath) {
  Rng rng(21);
  const CsrMatrix a = pivot_before_full_tail(rng);
  const LuFactors fs = scalar_of(a);
  const index_t region = dense_region_of(a);
  const index_t dev = first_deviation(fs);
  ASSERT_LE(region, dev);
  ASSERT_LT(dev, full_tail_start(a)) << "the full-tail rule must fall back";

  const long long fallbacks0 = obs::counter("lu.panel.fallbacks").value();
  const LuFactors fp = lu_factorize(a);
  EXPECT_EQ(obs::counter("lu.panel.fallbacks").value(), fallbacks0);
  EXPECT_TRUE(fp.stats.used_panel);
  EXPECT_EQ(fp.stats.tail_cols, a.rows - region);
  EXPECT_GT(fp.stats.tail_pivots, 0);
  expect_factors_bitwise(fs, fp, "pivot before the full tail");
}

TEST(PanelLu, DenseTailPivotMatchesScalar) {
  Rng rng(21);
  const CsrMatrix a = bordered_indefinite(60, 12, rng);
  const LuFactors fs = scalar_of(a);
  const index_t tail = dense_region_of(a);
  ASSERT_LE(tail, first_deviation(fs)) << "every deviation must be in the tail";
  ASSERT_LT(first_deviation(fs), fs.n) << "expected off-diagonal pivots";

  // Width 4: several tail blocks, which exercises the GEMM.
  const std::optional<LuFactors> attempt = panel_of(a, 4);
  ASSERT_TRUE(attempt.has_value());
  const LuFactors& fp = *attempt;
  EXPECT_TRUE(fp.stats.used_panel);
  EXPECT_EQ(fp.stats.tail_cols, a.rows - tail);
  EXPECT_GT(fp.stats.tail_pivots, 0);
  EXPECT_LE(fp.stats.max_width, 4);
  expect_factors_bitwise(fs, fp, "tail-pivoted panel vs scalar");
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
  ASSERT_EQ(dense_region_of(a), 0);
  const LuFactors fs = scalar_of(a);
  const LuFactors fp = lu_factorize(a);
  ASSERT_EQ(fs.row_perm[1], 0);
  EXPECT_TRUE(fp.stats.used_panel);
  expect_factors_bitwise(fs, fp, "tied tail pivot");
}

TEST(PanelLu, SolveOnTailPivotedFactorHasSmallResidual) {
  Rng rng(5);
  const CsrMatrix a = bordered_indefinite(80, 16, rng);
  const std::optional<LuFactors> attempt = panel_of(a, 8);
  ASSERT_TRUE(attempt.has_value());
  const LuFactors& f = *attempt;
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
    std::optional<LuFactors> fs, fp;
    try { fs = scalar_of(a); } catch (const Error&) {}
    try { fp = lu_factorize(a); } catch (const Error&) {}
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
  EXPECT_THROW(scalar_of(a), Error);
  EXPECT_THROW(lu_factorize(a), Error);
  EXPECT_FALSE(panel_of(a).has_value()) << "the panel attempt must decline";
}

TEST(PanelLu, WidthCapAndRelaxationKnobs) {
  const CsrMatrix a = ordered_matrix(testing::grid_laplacian(12, 12));
  const LuFactors fs = scalar_of(a);

  const std::optional<LuFactors> fc = panel_of(a, 4);
  ASSERT_TRUE(fc.has_value());
  EXPECT_LE(fc->stats.max_width, 4);
  expect_factors_bitwise(fs, *fc, "width cap");

  const std::optional<LuFactors> ff = panel_of(a, 32, 0.0);
  const std::optional<LuFactors> fr = panel_of(a, 32, 0.5);
  ASSERT_TRUE(ff.has_value() && fr.has_value());
  // Relaxation only merges panels: never narrower, numerics untouched.
  EXPECT_GE(fr->stats.avg_width, ff->stats.avg_width);
  EXPECT_LE(fr->stats.panel_count, ff->stats.panel_count);
  expect_factors_bitwise(fs, *ff, "fundamental supernodes");
  expect_factors_bitwise(fs, *fr, "relaxed amalgamation");

  const std::optional<LuFactors> fu = panel_of(a, 0, 0.0);  // 0 = no cap
  ASSERT_TRUE(fu.has_value());
  expect_factors_bitwise(fs, *fu, "unlimited width");
}

TEST(PanelLu, MemoryBytesEqualAcrossKernels) {
  const CsrMatrix a = ordered_matrix(testing::grid_laplacian(8, 8));
  const LuFactors fs = scalar_of(a);
  const LuFactors fp = lu_factorize(a);
  // The panel kernel keeps nothing beside the factors: its packed panels
  // and panel partition are transient, so both kernels charge the same.
  EXPECT_EQ(fp.memory_bytes(), fs.memory_bytes());
  EXPECT_GE(fs.memory_bytes(),
            fs.lower.values.size() * sizeof(value_t) +
                fs.upper_t.values.size() * sizeof(value_t));
}

// The solver's factors are the scalar kernel's, each D_ℓ and S̃ bit for
// bit (the per-factor invariant every fuzz case runs), and its answer does
// not depend on the subdomain thread count.
TEST(PanelLu, FullSolveBitwiseAcrossKernels) {
  const CsrMatrix a = testing::grid_laplacian(10, 10);
  Rng rng(5);
  std::vector<value_t> b(a.rows);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);

  auto solve_with = [&](unsigned threads) {
    SolverOptions opt;
    opt.num_subdomains = 4;
    opt.threads = threads;
    SchurSolver solver(a, opt);
    solver.setup();
    solver.factor();
    check::CheckReport rep;
    check::check_factor_kernels(solver, rep);
    EXPECT_TRUE(rep.ok()) << "threads " << threads << ": " << rep.summary();
    EXPECT_NE(solver.preconditioner(), nullptr);
    std::vector<value_t> x(a.rows, 0.0);
    solver.solve(b, x);
    return x;
  };
  const std::vector<value_t> x1 = solve_with(1);
  const std::vector<value_t> x4 = solve_with(4);
  EXPECT_TRUE(bitwise_equal(x1, x4));
}

// The per-factor invariant reports one ulp of one factor entry: in L, in
// Uᵀ and in a D_ℓ factor the solver holds.
TEST(PanelLu, KernelInvariantReportsOneUlp) {
  const CsrMatrix a = ordered_matrix(testing::grid_laplacian(9, 9));
  const CscMatrix ac = csr_to_csc(a);
  const LuFactors f = lu_factorize(a);
  check::CheckReport clean;
  check::check_factors_match_scalar(ac, {}, f, "grid", clean);
  EXPECT_TRUE(clean.ok()) << clean.summary();

  const auto planted = [&](LuFactors g, bool in_lower) {
    std::vector<value_t>& v = in_lower ? g.lower.values : g.upper_t.values;
    value_t& e = v[v.size() / 2];
    e = std::nextafter(e, std::numeric_limits<value_t>::infinity());
    check::CheckReport rep;
    check::check_factors_match_scalar(ac, {}, g, "grid", rep);
    return rep;
  };
  for (const bool in_lower : {true, false}) {
    const check::CheckReport rep = planted(f, in_lower);
    ASSERT_EQ(rep.violations.size(), 1u) << rep.summary();
    EXPECT_EQ(rep.violations[0].checker, "lu_kernel.factors");
    EXPECT_NE(rep.violations[0].detail.find(in_lower ? "lower" : "upper_t"),
              std::string::npos)
        << rep.summary();
  }
  // A swapped pair of pivot rows is a finding too.
  LuFactors swapped = f;
  std::swap(swapped.row_perm[0], swapped.row_perm[1]);
  check::CheckReport rep;
  check::check_factors_match_scalar(ac, {}, swapped, "grid", rep);
  EXPECT_TRUE(rep.has("lu_kernel.factors"));

  // One of a solver's own D_ℓ factors, rebuilt through its colmap.
  SolverOptions opt;
  opt.num_subdomains = 4;
  SchurSolver solver(testing::grid_laplacian(10, 10), opt);
  solver.setup();
  solver.factor();
  const SubdomainFactorization& d0 = solver.factorizations()[0];
  const CscMatrix d = csr_to_csc(
      permute_symmetric(solver.subdomains()[0].d, d0.colmap));
  check::CheckReport own;
  check::check_factors_match_scalar(d, opt.assembly.lu, d0.lu, "d0", own);
  EXPECT_TRUE(own.ok()) << own.summary();
  LuFactors bumped = d0.lu;
  bumped.upper_t.values[0] =
      std::nextafter(bumped.upper_t.values[0], value_t{0});
  check::CheckReport found;
  check::check_factors_match_scalar(d, opt.assembly.lu, bumped, "d0", found);
  EXPECT_TRUE(found.has("lu_kernel.factors")) << found.summary();
}

TEST(Supernodes, AverageWidthOfEmptyFactorIsOne) {
  // Regression: callers divide by average_width(); an empty factor must
  // report the neutral width 1.0, not 0.0.
  const Supernodes empty;
  EXPECT_EQ(empty.average_width(), 1.0);
}

// The dense-block apply against the CSC sweeps it replaces
// (lower_solve_dense + upper_solve_dense), on each path: blocks from column
// 0, from the middle, from dense_block_start, and none; right-hand sides
// holding exact zeros, −0.0 and ±∞. The second factor is nearly diagonal,
// so absent entries of its block meet a −0.0 that no present entry
// touches, and an ∞ that reaches only one other row.
TEST(PanelLu, DenseBlockApplyMatchesCscSweeps) {
  Rng rng(31);
  constexpr value_t inf = std::numeric_limits<value_t>::infinity();
  CooMatrix sparse(4, 4);
  for (index_t i = 0; i < 4; ++i) sparse.add(i, i, i == 2 ? -2.0 : 2.0);
  sparse.add(3, 0, 1.0);
  const LuFactors factors[] = {
      lu_factorize(ordered_matrix(bordered_indefinite(60, 12, rng))),
      lu_factorize(coo_to_csr(sparse))};
  for (const LuFactors& f : factors) {
    const index_t n = f.n;
    const index_t rule = dense_block_start(f);
    EXPECT_LT(rule, n);
    std::vector<std::vector<value_t>> rhs = {
        std::vector<value_t>(static_cast<std::size_t>(n), -0.0)};
    if (n == 4) {
      rhs.push_back({-1.0, -0.0, 1.0, -0.0});
      rhs.push_back({inf, 1.0, -0.0, 1.0});
      rhs.push_back({1.0, -inf, 1.0, -0.0});
    } else {
      EXPECT_GT(rule, 0);
      for (int r = 0; r < 6; ++r) {
        std::vector<value_t> b = values_with_zeros(static_cast<std::size_t>(n), rng);
        if (r >= 3) {
          b[rng.bounded(n)] = inf;
          b[rng.bounded(n)] = -inf;
        }
        rhs.push_back(std::move(b));
      }
    }
    for (const index_t start : {index_t{0}, n / 2, rule, n}) {
      const BlockLuFactors bf = with_dense_block(f, start);
      EXPECT_EQ(bf.start, start);
      EXPECT_EQ(bf.stored_nnz, f.fill_nnz());
      if (start == rule) {
        EXPECT_LE(bf.memory_bytes(), f.memory_bytes());
      }
      for (std::size_t r = 0; r < rhs.size(); ++r) {
        std::vector<value_t> want = rhs[r];
        lower_solve_dense(f.lower, want, /*unit_diag=*/true);
        upper_solve_dense(f.upper_t, want);
        for (const panel::KernelTable* t : kernel_paths()) {
          std::vector<value_t> got = rhs[r];
          block_lu_solve(bf, got, t);
          EXPECT_TRUE(bitwise_equal(want, got))
              << "n " << n << ", block start " << start
              << ", right-hand side " << r;
        }
      }
    }
  }
}

void expect_block_factors_equal(const BlockLuFactors& a,
                                const BlockLuFactors& b, const char* what) {
  ASSERT_EQ(a.n, b.n) << what;
  EXPECT_EQ(a.start, b.start) << what;
  EXPECT_EQ(a.row_perm, b.row_perm) << what;
  EXPECT_EQ(a.stored_nnz, b.stored_nnz) << what;
  EXPECT_EQ(a.memory_bytes(), b.memory_bytes()) << what;
  for (const bool lower : {true, false}) {
    const CscMatrix& x = lower ? a.lower_head : a.upper_t_head;
    const CscMatrix& y = lower ? b.lower_head : b.upper_t_head;
    EXPECT_EQ(x.rows, y.rows) << what;
    EXPECT_EQ(x.cols, y.cols) << what;
    EXPECT_EQ(x.col_ptr, y.col_ptr) << what;
    EXPECT_EQ(x.row_idx, y.row_idx) << what;
    EXPECT_TRUE(bitwise_equal(x.values, y.values))
        << what << (lower ? ": L head" : ": U head");
  }
  EXPECT_TRUE(bitwise_equal(a.block, b.block)) << what << ": block";
}

// The panel kernel writes LU(S̃)'s BlockLuFactors itself: equal, in start,
// heads, block bytes, row_perm and stored_nnz, to the scalar factors moved
// into a block at dense_block_start. Dense regions from column 0
// (the arena is the block), mid-matrix, with pivots in the region, and
// none at all.
TEST(PanelLu, KernelWrittenBlockMatchesScalarBlock) {
  Rng rng(41);
  CooMatrix path(40, 40);
  for (index_t i = 0; i < 40; ++i) {
    path.add(i, i, 4.0);
    if (i > 0) path.add(i, i - 1, -1.0);
    if (i + 1 < 40) path.add(i, i + 1, -1.5);
  }
  struct Case {
    const char* what;
    CsrMatrix a;
  };
  const Case cases[] = {
      {"dense from column 0", bordered_indefinite(30, 40, rng)},
      {"dense mid-matrix", ordered_matrix(testing::grid_laplacian(14, 14))},
      {"pivots in the region", bordered_indefinite(60, 12, rng)},
      {"pivot before the full tail", pivot_before_full_tail(rng)},
      {"a few trailing columns", coo_to_csr(path)},
  };
  std::vector<index_t> regions;
  for (const Case& c : cases) {
    const CsrMatrix& a = c.a;
    const LuFactors fs = scalar_of(a);
    const BlockLuFactors want = with_dense_block(fs, dense_block_start(fs));
    const PatternAnalysis an = analyze_pattern(a, FillOrdering::Given);
    const std::optional<BlockLuFactors> got =
        panel_lu_factorize_block(csr_to_csc(a), an, LuOptions{});
    ASSERT_TRUE(got.has_value()) << c.what;
    expect_block_factors_equal(want, *got, c.what);
    expect_block_factors_equal(want, block_lu_factorize(a, an), c.what);
    // No block at all: the same extraction at start n gives the CSC
    // factors D_ℓ keep.
    const std::optional<LuFactors> csc = panel_of(a);
    ASSERT_TRUE(csc.has_value()) << c.what;
    expect_block_factors_equal(with_dense_block(fs, a.rows),
                               with_dense_block(*csc, a.rows), c.what);
    regions.push_back(dense_region_of(a));
  }
  EXPECT_EQ(regions[0], 0);
  EXPECT_EQ(cases[0].a.rows * cases[0].a.rows,
            static_cast<index_t>(block_lu_factorize(
                                     cases[0].a, analyze_pattern(cases[0].a,
                                                                 FillOrdering::Given))
                                     .block.size()))
      << "the arena is the block";
  EXPECT_GT(regions[1], 0);
  EXPECT_LT(regions[1], cases[1].a.rows);
  EXPECT_GT(regions[4], cases[4].a.rows - 10);
}

// A stored exact zero (0.0 or −0.0) reads as an absent entry in a dense
// block, so a factor holding one in its candidate block keeps it in CSC.
TEST(PanelLu, StoredZeroKeepsTheBlockInCsc) {
  Rng rng(32);
  const LuFactors f = lu_factorize(ordered_matrix(bordered_indefinite(60, 12, rng)));
  const index_t start = dense_block_start(f);
  ASSERT_LT(start, f.n);
  for (const bool in_l : {true, false}) {
    LuFactors z = f;
    CscMatrix& m = in_l ? z.lower : z.upper_t;
    index_t j = start;
    while (m.col_nnz(j) < 2) ++j;  // an off-diagonal entry of the block
    m.values[m.col_ptr[j] + 1] = in_l ? 0.0 : -0.0;
    EXPECT_EQ(dense_block_start(z), z.n) << (in_l ? "L" : "U");
    EXPECT_THROW(with_dense_block(z, start), Error);
    const BlockLuFactors bf = with_dense_block(z, z.n);
    std::vector<value_t> want = values_with_zeros(static_cast<std::size_t>(z.n), rng);
    std::vector<value_t> got = want;
    lower_solve_dense(z.lower, want, /*unit_diag=*/true);
    upper_solve_dense(z.upper_t, want);
    block_lu_solve(bf, got);
    EXPECT_TRUE(bitwise_equal(want, got)) << (in_l ? "L" : "U");
  }
}

}  // namespace
}  // namespace pdslin
