#include "direct/kernels.hpp"

#include <cmath>
#include <utility>

namespace pdslin::panel {

template <typename T>
void trsm_unit_lower(const T* tri, index_t nr, index_t tri0, index_t w,
                     T* y, index_t ncol) {
  for (index_t kp = 0; kp < w; ++kp) {
    const T* lk = tri + static_cast<std::size_t>(kp) * nr + tri0;
    const T* yk = y + static_cast<std::size_t>(kp) * ncol;
    for (index_t k = kp + 1; k < w; ++k) {
      const T c = lk[k];
      if (c == T(0)) continue;  // structural padding: term is an exact zero
      T* row = y + static_cast<std::size_t>(k) * ncol;
      for (index_t q = 0; q < ncol; ++q) row[q] -= c * yk[q];
    }
  }
}

template <typename T>
void gemm_minus(const T* lblk, index_t lda, index_t ni, index_t w,
                const T* y, index_t ncol, T* c, index_t ldc) {
  for (index_t q = 0; q < ncol; ++q) {
    T* col = c + static_cast<std::size_t>(q) * ldc;
    for (index_t k = 0; k < w; ++k) {
      const T b = y[static_cast<std::size_t>(k) * ncol + q];
      if (b == T(0)) continue;
      const T* a = lblk + static_cast<std::size_t>(k) * lda;
      for (index_t i = 0; i < ni; ++i) col[i] -= a[i] * b;
    }
  }
}

template <typename T>
bool factorize_columns(T* pan, index_t nr, index_t tri0, index_t w,
                       index_t j0, index_t j1, double pivot_tol,
                       double min_pivot, index_t* perm) {
  for (index_t jj = j0; jj < j1; ++jj) {
    T* col = pan + static_cast<std::size_t>(jj) * nr;
    // Left-looking updates, ascending pivot order; the updating U entry is
    // final by induction (rows above were finished by earlier iterations).
    for (index_t kp = j0; kp < jj; ++kp) {
      const T u = col[tri0 + kp];
      if (u == T(0)) continue;
      const T* lk = pan + static_cast<std::size_t>(kp) * nr;
      for (index_t i = tri0 + kp + 1; i < nr; ++i) col[i] -= lk[i] * u;
    }
    // Pivot choice, exactly the scalar kernel's rule. Comparisons run in
    // double so the fp32 rung applies the same policy.
    const index_t dpos = tri0 + jj;
    index_t best = -1;
    double best_abs = 0.0;
    for (index_t i = dpos; i < nr; ++i) {
      const double av = std::abs(static_cast<double>(col[i]));
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
    const double dv = std::abs(static_cast<double>(col[dpos]));
    if (!(diag_free && dv >= pivot_tol * best_abs && dv > min_pivot)) {
      if (perm == nullptr) return false;  // off-diagonal pivot wanted
      if (best != dpos) {
        const std::size_t off = static_cast<std::size_t>(best - dpos);
        for (index_t c = 0; c < w; ++c) {
          T* row = pan + static_cast<std::size_t>(c) * nr + dpos;
          std::swap(row[0], row[off]);
        }
        std::swap(perm[jj], perm[best - tri0]);
      }
    }
    const T pv = col[dpos];
    for (index_t i = dpos + 1; i < nr; ++i) {
      const T v = col[i];
      col[i] = v / pv;
      if (v != T(0) && col[i] == T(0)) return false;  // multiplier underflow
    }
  }
  return true;
}

template <typename T>
void gather_block(const T* pan, index_t nr, const index_t* pos, index_t nrows,
                  const index_t* jloc, index_t ncol, bool row_major, T* out) {
  if (row_major) {
    for (index_t i = 0; i < nrows; ++i) {
      const index_t p = pos[i];
      T* row = out + static_cast<std::size_t>(i) * ncol;
      if (p < 0) {
        for (index_t q = 0; q < ncol; ++q) row[q] = T(0);
      } else {
        for (index_t q = 0; q < ncol; ++q) {
          row[q] = pan[static_cast<std::size_t>(jloc[q]) * nr + p];
        }
      }
    }
  } else {
    for (index_t q = 0; q < ncol; ++q) {
      const T* src = pan + static_cast<std::size_t>(jloc[q]) * nr;
      T* col = out + static_cast<std::size_t>(q) * nrows;
      for (index_t i = 0; i < nrows; ++i) {
        const index_t p = pos[i];
        col[i] = p < 0 ? T(0) : src[p];
      }
    }
  }
}

template <typename T>
void scatter_block(const T* block, index_t nrows, index_t ncol, bool row_major,
                   const index_t* pos, const index_t* jloc, T* pan,
                   index_t nr) {
  if (row_major) {
    for (index_t i = 0; i < nrows; ++i) {
      const index_t p = pos[i];
      if (p < 0) continue;
      const T* row = block + static_cast<std::size_t>(i) * ncol;
      for (index_t q = 0; q < ncol; ++q) {
        pan[static_cast<std::size_t>(jloc[q]) * nr + p] = row[q];
      }
    }
  } else {
    for (index_t q = 0; q < ncol; ++q) {
      T* dst = pan + static_cast<std::size_t>(jloc[q]) * nr;
      const T* col = block + static_cast<std::size_t>(q) * nrows;
      for (index_t i = 0; i < nrows; ++i) {
        const index_t p = pos[i];
        if (p >= 0) dst[p] = col[i];
      }
    }
  }
}

template void trsm_unit_lower<double>(const double*, index_t, index_t, index_t,
                                      double*, index_t);
template void trsm_unit_lower<float>(const float*, index_t, index_t, index_t,
                                     float*, index_t);
template void gemm_minus<double>(const double*, index_t, index_t, index_t,
                                 const double*, index_t, double*, index_t);
template void gemm_minus<float>(const float*, index_t, index_t, index_t,
                                const float*, index_t, float*, index_t);
template bool factorize_columns<double>(double*, index_t, index_t, index_t,
                                        index_t, index_t, double, double,
                                        index_t*);
template bool factorize_columns<float>(float*, index_t, index_t, index_t,
                                       index_t, index_t, double, double,
                                       index_t*);
template void gather_block<double>(const double*, index_t, const index_t*,
                                   index_t, const index_t*, index_t, bool,
                                   double*);
template void gather_block<float>(const float*, index_t, const index_t*,
                                  index_t, const index_t*, index_t, bool,
                                  float*);
template void scatter_block<double>(const double*, index_t, index_t, bool,
                                    const index_t*, const index_t*, double*,
                                    index_t);
template void scatter_block<float>(const float*, index_t, index_t, bool,
                                   const index_t*, const index_t*, float*,
                                   index_t);

}  // namespace pdslin::panel
