// Shared helpers for the test suite: dense oracles and random matrix
// generation used to cross-validate the sparse kernels.
#pragma once

#include <cmath>
#include <vector>

#include "direct/kernels.hpp"
#include "partition/engine.hpp"
#include "sparse/convert.hpp"
#include "sparse/csr.hpp"
#include "util/rng.hpp"

namespace pdslin::testing {

using Dense = std::vector<std::vector<value_t>>;

inline Dense to_dense(const CsrMatrix& a) {
  Dense d(a.rows, std::vector<value_t>(a.cols, 0.0));
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      d[i][a.col_idx[p]] += a.has_values() ? a.values[p] : 1.0;
    }
  }
  return d;
}

inline Dense to_dense(const CscMatrix& a) { return to_dense(csc_to_csr(a)); }

inline CsrMatrix from_dense(const Dense& d) {
  CooMatrix coo(static_cast<index_t>(d.size()),
                d.empty() ? 0 : static_cast<index_t>(d[0].size()));
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (std::size_t j = 0; j < d[i].size(); ++j) {
      if (d[i][j] != 0.0) {
        coo.add(static_cast<index_t>(i), static_cast<index_t>(j), d[i][j]);
      }
    }
  }
  return coo_to_csr(coo);
}

/// Random sparse matrix with the given density; diag_boost > 0 adds a
/// dominant diagonal (guaranteeing nonsingularity).
inline CsrMatrix random_sparse(index_t rows, index_t cols, double density,
                               Rng& rng, double diag_boost = 0.0) {
  CooMatrix coo(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    for (index_t j = 0; j < cols; ++j) {
      if (rng.uniform() < density) coo.add(i, j, rng.uniform(-1.0, 1.0));
    }
  }
  if (diag_boost > 0.0) {
    for (index_t i = 0; i < std::min(rows, cols); ++i) {
      coo.add(i, i, diag_boost + rng.uniform());
    }
  }
  return coo_to_csr(coo);
}

/// Structurally symmetric random matrix (pattern symmetric, values not).
inline CsrMatrix random_pattern_symmetric(index_t n, double density, Rng& rng,
                                          double diag_boost = 4.0) {
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = i + 1; j < n; ++j) {
      if (rng.uniform() < density) {
        coo.add(i, j, rng.uniform(-1.0, 1.0));
        coo.add(j, i, rng.uniform(-1.0, 1.0));
      }
    }
    coo.add(i, i, diag_boost + rng.uniform());
  }
  return coo_to_csr(coo);
}

/// Dense Gaussian elimination with partial pivoting (oracle).
/// Returns false if singular.
inline bool dense_solve(Dense a, std::vector<value_t> b,
                        std::vector<value_t>& x) {
  const auto n = static_cast<index_t>(a.size());
  std::vector<index_t> piv(n);
  for (index_t k = 0; k < n; ++k) {
    index_t p = k;
    for (index_t i = k + 1; i < n; ++i) {
      if (std::abs(a[i][k]) > std::abs(a[p][k])) p = i;
    }
    if (a[p][k] == 0.0) return false;
    std::swap(a[k], a[p]);
    std::swap(b[k], b[p]);
    for (index_t i = k + 1; i < n; ++i) {
      const value_t m = a[i][k] / a[k][k];
      if (m == 0.0) continue;
      for (index_t j = k; j < n; ++j) a[i][j] -= m * a[k][j];
      b[i] -= m * b[k];
    }
  }
  x.assign(n, 0.0);
  for (index_t i = n - 1; i >= 0; --i) {
    value_t s = b[i];
    for (index_t j = i + 1; j < n; ++j) s -= a[i][j] * x[j];
    x[i] = s / a[i][i];
  }
  return true;
}

/// Every path's kernel table this build and CPU have, baseline first.
inline std::vector<const panel::KernelTable*> kernel_paths() {
  std::vector<const panel::KernelTable*> paths;
  for (const auto p : {panel::KernelPath::Baseline, panel::KernelPath::Avx2}) {
    if (const panel::KernelTable* t = panel::kernel_table(p)) paths.push_back(t);
  }
  return paths;
}

/// `a` with the diagonal entry of row `row` stored as two halves, side by
/// side: spmv sums them back to a, but the row stores its column twice.
inline CsrMatrix with_split_diagonal(const CsrMatrix& a, index_t row) {
  CsrMatrix b = a;
  for (index_t p = a.row_ptr[row]; p < a.row_ptr[row + 1]; ++p) {
    if (a.col_idx[p] != row) continue;
    b.values[p] = a.values[p] / 2;
    b.col_idx.insert(b.col_idx.begin() + p + 1, row);
    b.values.insert(b.values.begin() + p + 1, a.values[p] - b.values[p]);
    for (index_t i = row + 1; i <= a.rows; ++i) ++b.row_ptr[i];
    break;
  }
  return b;
}

/// 5-point 2D grid Laplacian (SPD), handy deterministic test matrix.
inline CsrMatrix grid_laplacian(index_t nx, index_t ny) {
  const index_t n = nx * ny;
  CooMatrix coo(n, n);
  auto id = [&](index_t x, index_t y) { return y * nx + x; };
  for (index_t y = 0; y < ny; ++y) {
    for (index_t x = 0; x < nx; ++x) {
      const index_t v = id(x, y);
      coo.add(v, v, 4.2);
      if (x + 1 < nx) { coo.add(v, id(x + 1, y), -1.0); coo.add(id(x + 1, y), v, -1.0); }
      if (y + 1 < ny) { coo.add(v, id(x, y + 1), -1.0); coo.add(id(x, y + 1), v, -1.0); }
    }
  }
  return coo_to_csr(coo);
}

/// Static-weight k-way partition of the rows of `m` (the vertices of its
/// column-net hypergraph): the engine's recursion with unit weights, one
/// attempt — the plain recursive bisection of §III-C.
inline std::vector<index_t> static_partition(const CsrMatrix& m, index_t k,
                                             CutMetric metric, double epsilon,
                                             std::uint64_t seed) {
  RhbOptions opt;
  opt.num_parts = k;
  opt.metric = metric;
  opt.dynamic_weights = false;
  opt.epsilon = epsilon;
  opt.seed = seed;
  opt.attempts = 1;
  return partition::rhb_engine(m, opt, {}).row_part;
}

}  // namespace pdslin::testing
