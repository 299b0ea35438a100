#include "direct/kernels.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#ifdef PDSLIN_KERNELS_AVX2
#include <immintrin.h>
#endif

#include "util/error.hpp"

namespace pdslin::panel {

// The bodies of the dispatched kernels. Each is inlined into one wrapper
// per path below, and so compiled once for each path's target. Their inner
// loops update distinct elements with a plain multiply, subtract or
// divide, and the library builds with -ffp-contract=off, so the vector code
// of either path gives every element the scalar loop's bits.
namespace {

[[gnu::always_inline]] inline void trsm_body(const value_t* tri, index_t nr,
                                             index_t tri0, index_t w,
                                             value_t* y, index_t ncol) {
  for (index_t kp = 0; kp < w; ++kp) {
    const value_t* lk = tri + static_cast<std::size_t>(kp) * nr + tri0;
    const value_t* yk = y + static_cast<std::size_t>(kp) * ncol;
    for (index_t k = kp + 1; k < w; ++k) {
      const value_t c = lk[k];
      if (c == 0.0) continue;  // structural padding: term is an exact zero
      value_t* row = y + static_cast<std::size_t>(k) * ncol;
      for (index_t q = 0; q < ncol; ++q) row[q] -= c * yk[q];
    }
  }
}

// C −= L·Y over `ncol` columns of Y, whose rows are `ldy` apart.
[[gnu::always_inline]] inline void gemm_loop(const value_t* lblk, index_t lda,
                                             index_t ni, index_t w,
                                             const value_t* y, index_t ldy,
                                             index_t ncol, value_t* c,
                                             index_t ldc) {
  for (index_t q = 0; q < ncol; ++q) {
    value_t* col = c + static_cast<std::size_t>(q) * ldc;
    for (index_t k = 0; k < w; ++k) {
      const value_t b = y[static_cast<std::size_t>(k) * ldy + q];
      if (b == 0.0) continue;
      const value_t* a = lblk + static_cast<std::size_t>(k) * lda;
      for (index_t i = 0; i < ni; ++i) col[i] -= a[i] * b;
    }
  }
}

[[gnu::always_inline]] inline void gemm_body(const value_t* lblk, index_t lda,
                                             index_t ni, index_t w,
                                             const value_t* y, index_t ncol,
                                             value_t* c, index_t ldc) {
  gemm_loop(lblk, lda, ni, w, y, ncol, ncol, c, ldc);
}

#ifdef PDSLIN_KERNELS_AVX2
// The AVX2 path's C −= L·Y: 8 × 4 register tiles (two 4-lane vectors of
// rows by four columns), the loop for the rows and columns left over.
// Every element of a tile takes its w terms in ascending k, each a
// multiply and then a subtract (no FMA: the target is avx2 alone), so it
// meets the loop's operations in the loop's order. The loop skips a term
// whose multiplier y(k, q) is ±0.0; the tile ANDs that term's product to
// +0.0 instead: c − (+0.0) is c for every c, −0.0 included, and the mask
// also hides 0·∞ and 0·NaN.
[[gnu::target("avx2"), gnu::always_inline]] inline void gemm_tile_8x4(
    const value_t* l, index_t lda, index_t w, const value_t* y, index_t ldy,
    value_t* c, index_t ldc) {
  __m256d acc[4][2];
#pragma GCC unroll 4
  for (int q = 0; q < 4; ++q) {
    acc[q][0] = _mm256_loadu_pd(c + static_cast<std::size_t>(q) * ldc);
    acc[q][1] = _mm256_loadu_pd(c + static_cast<std::size_t>(q) * ldc + 4);
  }
  const __m256d zero = _mm256_setzero_pd();
  for (index_t k = 0; k < w; ++k) {
    const value_t* lk = l + static_cast<std::size_t>(k) * lda;
    const value_t* yk = y + static_cast<std::size_t>(k) * ldy;
    const __m256d a0 = _mm256_loadu_pd(lk);
    const __m256d a1 = _mm256_loadu_pd(lk + 4);
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) {
      const __m256d b = _mm256_broadcast_sd(yk + q);
      const __m256d keep = _mm256_cmp_pd(b, zero, _CMP_NEQ_UQ);
      acc[q][0] = _mm256_sub_pd(acc[q][0],
                                _mm256_and_pd(_mm256_mul_pd(a0, b), keep));
      acc[q][1] = _mm256_sub_pd(acc[q][1],
                                _mm256_and_pd(_mm256_mul_pd(a1, b), keep));
    }
  }
#pragma GCC unroll 4
  for (int q = 0; q < 4; ++q) {
    _mm256_storeu_pd(c + static_cast<std::size_t>(q) * ldc, acc[q][0]);
    _mm256_storeu_pd(c + static_cast<std::size_t>(q) * ldc + 4, acc[q][1]);
  }
}

[[gnu::target("avx2"), gnu::always_inline]] inline void gemm_tiled_body(
    const value_t* lblk, index_t lda, index_t ni, index_t w, const value_t* y,
    index_t ncol, value_t* c, index_t ldc) {
  const index_t ni8 = ni - ni % 8;
  const index_t nc4 = ncol - ncol % 4;
  for (index_t q = 0; q < nc4; q += 4) {
    value_t* cq = c + static_cast<std::size_t>(q) * ldc;
    for (index_t i = 0; i < ni8; i += 8) {
      gemm_tile_8x4(lblk + i, lda, w, y + q, ncol, cq + i, ldc);
    }
    gemm_loop(lblk + ni8, lda, ni - ni8, w, y + q, ncol, 4, cq + ni8, ldc);
  }
  gemm_loop(lblk, lda, ni, w, y + nc4, ncol, ncol - nc4,
            c + static_cast<std::size_t>(nc4) * ldc, ldc);
}
#endif

[[gnu::always_inline]] inline bool factorize_body(
    value_t* pan, index_t nr, index_t tri0, index_t w, index_t j0, index_t j1,
    double pivot_tol, double min_pivot, index_t* perm) {
  for (index_t jj = j0; jj < j1; ++jj) {
    value_t* col = pan + static_cast<std::size_t>(jj) * nr;
    // Left-looking updates, ascending pivot order; the updating U entry is
    // final by induction (rows above were finished by earlier iterations).
    for (index_t kp = j0; kp < jj; ++kp) {
      const value_t u = col[tri0 + kp];
      if (u == 0.0) continue;
      const value_t* lk = pan + static_cast<std::size_t>(kp) * nr;
      for (index_t i = tri0 + kp + 1; i < nr; ++i) col[i] -= lk[i] * u;
    }
    // Pivot choice, exactly the scalar kernel's rule.
    const index_t dpos = tri0 + jj;
    index_t best = -1;
    double best_abs = 0.0;
    for (index_t i = dpos; i < nr; ++i) {
      const double av = std::abs(col[i]);
      if (av > best_abs ||
          (av == best_abs && best >= 0 && perm != nullptr &&
           perm[i - tri0] < perm[best - tri0])) {
        best = i;
        best_abs = av;
      }
    }
    if (best < 0 || !(best_abs > min_pivot)) return false;  // singular column
    // Row exchanges only ever move the row at the current position, so the
    // diagonal row, while unpivoted, still sits at dpos.
    const bool diag_free = perm == nullptr || perm[jj] == jj;
    const double dv = std::abs(col[dpos]);
    if (!(diag_free && dv >= pivot_tol * best_abs && dv > min_pivot)) {
      if (perm == nullptr) return false;  // off-diagonal pivot wanted
      if (best != dpos) {
        const std::size_t off = static_cast<std::size_t>(best - dpos);
        for (index_t c = 0; c < w; ++c) {
          value_t* row = pan + static_cast<std::size_t>(c) * nr + dpos;
          std::swap(row[0], row[off]);
        }
        std::swap(perm[jj], perm[best - tri0]);
      }
    }
    const value_t pv = col[dpos];
    for (index_t i = dpos + 1; i < nr; ++i) {
      const value_t v = col[i];
      col[i] = v / pv;
      if (v != 0.0 && col[i] == 0.0) return false;  // multiplier underflow
    }
  }
  return true;
}

[[gnu::always_inline]] inline void rhs_block_body(const CscMatrix& l,
                                                  const index_t* rows,
                                                  index_t u,
                                                  const index_t* slot,
                                                  value_t* x, index_t width) {
  for (index_t s = 0; s < u; ++s) {
    const index_t j = rows[s];
    value_t* xj = x + static_cast<std::size_t>(s) * width;
    const index_t cb = l.col_ptr[j];
    const index_t ce = l.col_ptr[j + 1];
    const value_t dj = l.values[cb];
    if (dj != 1.0) {
      for (index_t c = 0; c < width; ++c) xj[c] /= dj;
    }
    for (index_t p = cb + 1; p < ce; ++p) {
      const index_t t = slot[l.row_idx[p]];
      PDSLIN_ASSERT(t >= 0);  // the block's rows are closed under reach
      const value_t v = l.values[p];
      value_t* xt = x + static_cast<std::size_t>(t) * width;
      if (width == 1) {  // skips the vector loop's set-up for one column
        xt[0] -= v * xj[0];
        continue;
      }
      for (index_t c = 0; c < width; ++c) xt[c] -= v * xj[c];
    }
  }
}

[[gnu::always_inline]] inline void segment_row_body(const RowSegments& g,
                                                    const index_t* rows,
                                                    const value_t* w,
                                                    index_t nw, value_t* acc) {
  for (index_t p = 0; p < nw; ++p) {
    const index_t k = rows[p];
    const index_t len = g.len[k];
    const value_t wv = w[p];
    const value_t* src = g.values + g.offset[k];
    value_t* dst = acc + g.first[k];
    for (index_t q = 0; q < len; ++q) dst[q] += wv * src[q];
  }
}

// a·x_j for a present entry (a != 0.0), +0.0 for an absent one whatever
// x_j is: 0·∞ and 0·NaN are NaN, and 0·(−x) is −0.0, which would turn an
// x_r of −0.0 into +0.0. A bit mask rather than a branch, so the loops
// vectorize.
[[gnu::always_inline]] inline value_t present_term(value_t a, value_t xj) {
  const std::uint64_t keep = 0 - static_cast<std::uint64_t>(a != 0.0);
  return std::bit_cast<value_t>(std::bit_cast<std::uint64_t>(a * xj) & keep);
}

[[gnu::always_inline]] inline void dense_lu_body(const value_t* blk,
                                                 index_t nb, value_t* x) {
  for (index_t j = 0; j < nb; ++j) {
    const value_t xj = x[j];
    if (xj == 0.0) continue;
    const value_t* col = blk + static_cast<std::size_t>(j) * nb;
    for (index_t r = j + 1; r < nb; ++r) {
      x[r] -= present_term(col[r], xj);
    }
  }
  for (index_t j = nb - 1; j >= 0; --j) {
    const value_t* col = blk + static_cast<std::size_t>(j) * nb;
    x[j] /= col[j];
    const value_t xj = x[j];
    if (xj == 0.0) continue;
    for (index_t r = 0; r < j; ++r) {
      x[r] -= present_term(col[r], xj);
    }
  }
}

}  // namespace

// One wrapper per kernel and path; ATTR is the path's target attribute.
#define PDSLIN_PATH_KERNELS(ATTR, GEMM)                                        \
  ATTR void trsm(const value_t* tri, index_t nr, index_t tri0, index_t w,      \
                 value_t* y, index_t ncol) {                                   \
    trsm_body(tri, nr, tri0, w, y, ncol);                                      \
  }                                                                            \
  ATTR void gemm(const value_t* lblk, index_t lda, index_t ni, index_t w,      \
                 const value_t* y, index_t ncol, value_t* c, index_t ldc) {    \
    GEMM(lblk, lda, ni, w, y, ncol, c, ldc);                                   \
  }                                                                            \
  ATTR bool factorize(value_t* pan, index_t nr, index_t tri0, index_t w,       \
                      index_t j0, index_t j1, double pivot_tol,                \
                      double min_pivot, index_t* perm) {                       \
    return factorize_body(pan, nr, tri0, w, j0, j1, pivot_tol, min_pivot,      \
                          perm);                                               \
  }                                                                            \
  ATTR void rhs_block(const CscMatrix& l, const index_t* rows, index_t u,      \
                      const index_t* slot, value_t* x, index_t width) {        \
    rhs_block_body(l, rows, u, slot, x, width);                                \
  }                                                                            \
  ATTR void segment_row(const RowSegments& g, const index_t* rows,             \
                        const value_t* w, index_t nw, value_t* acc) {          \
    segment_row_body(g, rows, w, nw, acc);                                     \
  }                                                                            \
  ATTR void dense_lu(const value_t* blk, index_t nb, value_t* x) {             \
    dense_lu_body(blk, nb, x);                                                 \
  }                                                                            \
  constexpr KernelTable table{&trsm,      &gemm,        &factorize,            \
                              &rhs_block, &segment_row, &dense_lu};

namespace baseline {
PDSLIN_PATH_KERNELS(, gemm_body)
}  // namespace baseline

#ifdef PDSLIN_KERNELS_AVX2
namespace avx2 {
PDSLIN_PATH_KERNELS(__attribute__((target("avx2"))), gemm_tiled_body)
}  // namespace avx2
#endif

#undef PDSLIN_PATH_KERNELS

const KernelTable* kernel_table(KernelPath p) {
  if (!kernel_path_available(p)) return nullptr;
#ifdef PDSLIN_KERNELS_AVX2
  if (p == KernelPath::Avx2) return &avx2::table;
#endif
  return &baseline::table;
}

namespace {
const KernelTable& active() {
  static const KernelTable& table = *kernel_table(kernel_path());
  return table;
}
}  // namespace

void trsm_unit_lower(const value_t* tri, index_t nr, index_t tri0, index_t w,
                     value_t* y, index_t ncol) {
  active().trsm(tri, nr, tri0, w, y, ncol);
}

void gemm_minus(const value_t* lblk, index_t lda, index_t ni, index_t w,
                const value_t* y, index_t ncol, value_t* c, index_t ldc) {
  active().gemm(lblk, lda, ni, w, y, ncol, c, ldc);
}

bool factorize_columns(value_t* pan, index_t nr, index_t tri0, index_t w,
                       index_t j0, index_t j1, double pivot_tol,
                       double min_pivot, index_t* perm) {
  return active().factorize(pan, nr, tri0, w, j0, j1, pivot_tol, min_pivot,
                            perm);
}

void rhs_block_solve(const CscMatrix& l, const index_t* rows, index_t u,
                     const index_t* slot, value_t* x, index_t width) {
  active().rhs_block(l, rows, u, slot, x, width);
}

void segment_row_product(const RowSegments& g, const index_t* rows,
                         const value_t* w, index_t nw, value_t* acc) {
  active().segment_row(g, rows, w, nw, acc);
}

void dense_lu_solve(const value_t* blk, index_t nb, value_t* x) {
  active().dense_lu(blk, nb, x);
}

void gather_block(const value_t* pan, index_t nr, const index_t* pos,
                  index_t nrows, const index_t* jloc, index_t ncol,
                  bool row_major, value_t* out) {
  if (row_major) {
    for (index_t i = 0; i < nrows; ++i) {
      const index_t p = pos[i];
      value_t* row = out + static_cast<std::size_t>(i) * ncol;
      if (p < 0) {
        for (index_t q = 0; q < ncol; ++q) row[q] = 0.0;
      } else {
        for (index_t q = 0; q < ncol; ++q) {
          row[q] = pan[static_cast<std::size_t>(jloc[q]) * nr + p];
        }
      }
    }
  } else {
    for (index_t q = 0; q < ncol; ++q) {
      const value_t* src = pan + static_cast<std::size_t>(jloc[q]) * nr;
      value_t* col = out + static_cast<std::size_t>(q) * nrows;
      for (index_t i = 0; i < nrows; ++i) {
        const index_t p = pos[i];
        col[i] = p < 0 ? 0.0 : src[p];
      }
    }
  }
}

void scatter_block(const value_t* block, index_t nrows, index_t ncol,
                   bool row_major, const index_t* pos, const index_t* jloc,
                   value_t* pan, index_t nr) {
  if (row_major) {
    for (index_t i = 0; i < nrows; ++i) {
      const index_t p = pos[i];
      if (p < 0) continue;
      const value_t* row = block + static_cast<std::size_t>(i) * ncol;
      for (index_t q = 0; q < ncol; ++q) {
        pan[static_cast<std::size_t>(jloc[q]) * nr + p] = row[q];
      }
    }
  } else {
    for (index_t q = 0; q < ncol; ++q) {
      value_t* dst = pan + static_cast<std::size_t>(jloc[q]) * nr;
      const value_t* col = block + static_cast<std::size_t>(q) * nrows;
      for (index_t i = 0; i < nrows; ++i) {
        const index_t p = pos[i];
        if (p >= 0) dst[p] = col[i];
      }
    }
  }
}

}  // namespace pdslin::panel
