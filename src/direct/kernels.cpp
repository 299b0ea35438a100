#include "direct/kernels.hpp"

#include <cmath>
#include <utility>

namespace pdslin::panel {

void trsm_unit_lower(const value_t* tri, index_t nr, index_t tri0, index_t w,
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

void gemm_minus(const value_t* lblk, index_t lda, index_t ni, index_t w,
                const value_t* y, index_t ncol, value_t* c, index_t ldc) {
  for (index_t q = 0; q < ncol; ++q) {
    value_t* col = c + static_cast<std::size_t>(q) * ldc;
    for (index_t k = 0; k < w; ++k) {
      const value_t b = y[static_cast<std::size_t>(k) * ncol + q];
      if (b == 0.0) continue;
      const value_t* a = lblk + static_cast<std::size_t>(k) * lda;
      for (index_t i = 0; i < ni; ++i) col[i] -= a[i] * b;
    }
  }
}

bool factorize_columns(value_t* pan, index_t nr, index_t tri0, index_t w,
                       index_t j0, index_t j1, double pivot_tol,
                       double min_pivot, index_t* perm) {
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
