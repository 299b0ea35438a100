#include "direct/trisolve.hpp"

#include <string>
#include <vector>

#include "util/error.hpp"

namespace pdslin {

namespace {

// Column j of the forward sweep; takes the arrays as pointers, as upper_row.
inline void lower_column(const index_t* ptr, const index_t* idx,
                         const value_t* val, value_t* x, bool unit_diag,
                         index_t j) {
  const index_t begin = ptr[j];
  const index_t end = ptr[j + 1];
  PDSLIN_ASSERT(begin < end && idx[begin] == j);
  if (!unit_diag) {
    PDSLIN_CHECK_MSG(val[begin] != 0.0,
                     "matrix is singular at column " + std::to_string(j));
    x[j] /= val[begin];
  }
  const value_t xj = x[j];
  if (xj == 0.0) return;
  for (index_t p = begin + 1; p < end; ++p) x[idx[p]] -= val[p] * xj;
}

// Row i of U: x_i = (b_i − Σ_{j>i} U_ij·x_j) / U_ii, subtracting in
// descending j and skipping x_j == 0 — what a scatter of U's columns from
// the last one down does to x_i, operation for operation. Takes the arrays
// of `ut` (U by rows, diagonal first) as pointers, so that the stores to x
// cannot make the compiler reload them.
inline void upper_row(const index_t* ptr, const index_t* idx,
                      const value_t* val, value_t* x, index_t i) {
  const index_t begin = ptr[i];
  PDSLIN_ASSERT(begin < ptr[i + 1] && idx[begin] == i);
  value_t s = x[i];
  for (index_t p = ptr[i + 1] - 1; p > begin; --p) {
    const value_t xj = x[idx[p]];
    if (xj != 0.0) s -= val[p] * xj;
  }
  PDSLIN_CHECK_MSG(val[begin] != 0.0,
                   "matrix is singular at column " + std::to_string(i));
  x[i] = s / val[begin];
}

}  // namespace

void lower_solve_dense(const CscMatrix& l, std::span<value_t> x, bool unit_diag) {
  PDSLIN_CHECK(l.rows == l.cols);
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(l.cols));
  for (index_t j = 0; j < l.cols; ++j) {
    lower_column(l.col_ptr.data(), l.row_idx.data(), l.values.data(),
                 x.data(), unit_diag, j);
  }
}

void lower_solve_dense(const CscMatrix& l, std::span<value_t> x, bool unit_diag,
                       std::span<const index_t> cols) {
  PDSLIN_CHECK(l.rows == l.cols);
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(l.cols));
  for (index_t j : cols) {
    lower_column(l.col_ptr.data(), l.row_idx.data(), l.values.data(),
                 x.data(), unit_diag, j);
  }
}

void upper_solve_dense(const CscMatrix& ut, std::span<value_t> x) {
  PDSLIN_CHECK(ut.rows == ut.cols);
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(ut.cols));
  for (index_t i = ut.cols - 1; i >= 0; --i) {
    upper_row(ut.col_ptr.data(), ut.row_idx.data(), ut.values.data(),
              x.data(), i);
  }
}

void upper_solve_dense(const CscMatrix& ut, std::span<value_t> x,
                       std::span<const index_t> rows) {
  PDSLIN_CHECK(ut.rows == ut.cols);
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(ut.cols));
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    upper_row(ut.col_ptr.data(), ut.row_idx.data(), ut.values.data(),
              x.data(), *it);
  }
}

void lu_solve(const LuFactors& f, std::span<const value_t> b,
              std::span<value_t> x) {
  PDSLIN_CHECK(b.size() == static_cast<std::size_t>(f.n));
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(f.n));
  for (index_t k = 0; k < f.n; ++k) x[k] = b[f.row_perm[k]];
  lower_solve_dense(f.lower, x, /*unit_diag=*/true);
  upper_solve_dense(f.upper_t, x);
}

void block_lu_solve(const BlockLuFactors& f, std::span<value_t> x,
                    const panel::KernelTable* kernels) {
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(f.n));
  const CscMatrix& l = f.lower_head;
  const CscMatrix& ut = f.upper_t_head;
  for (index_t j = 0; j < f.start; ++j) {
    lower_column(l.col_ptr.data(), l.row_idx.data(), l.values.data(),
                 x.data(), /*unit_diag=*/true, j);
  }
  if (kernels != nullptr) {
    kernels->dense_lu(f.block.data(), f.n - f.start, x.data() + f.start);
  } else {
    panel::dense_lu_solve(f.block.data(), f.n - f.start, x.data() + f.start);
  }
  for (index_t i = f.start - 1; i >= 0; --i) {
    upper_row(ut.col_ptr.data(), ut.row_idx.data(), ut.values.data(),
              x.data(), i);
  }
}

}  // namespace pdslin
