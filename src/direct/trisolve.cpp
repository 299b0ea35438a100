#include "direct/trisolve.hpp"

#include <string>
#include <vector>

#include "util/error.hpp"

namespace pdslin {

void lower_solve_dense(const CscMatrix& l, std::span<value_t> x, bool unit_diag) {
  PDSLIN_CHECK(l.rows == l.cols);
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(l.cols));
  for (index_t j = 0; j < l.cols; ++j) {
    const index_t begin = l.col_ptr[j];
    const index_t end = l.col_ptr[j + 1];
    PDSLIN_ASSERT(begin < end && l.row_idx[begin] == j);
    if (!unit_diag) {
      PDSLIN_CHECK_MSG(l.values[begin] != 0.0,
                       "matrix is singular at column " + std::to_string(j));
      x[j] /= l.values[begin];
    }
    const value_t xj = x[j];
    if (xj == 0.0) continue;
    for (index_t p = begin + 1; p < end; ++p) {
      x[l.row_idx[p]] -= l.values[p] * xj;
    }
  }
}

void upper_solve_dense(const CscMatrix& u, std::span<value_t> x) {
  PDSLIN_CHECK(u.rows == u.cols);
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(u.cols));
  for (index_t j = u.cols - 1; j >= 0; --j) {
    const index_t begin = u.col_ptr[j];
    const index_t end = u.col_ptr[j + 1];
    PDSLIN_ASSERT(begin < end && u.row_idx[end - 1] == j);
    PDSLIN_CHECK_MSG(u.values[end - 1] != 0.0,
                     "matrix is singular at column " + std::to_string(j));
    x[j] /= u.values[end - 1];
    const value_t xj = x[j];
    if (xj == 0.0) continue;
    for (index_t p = begin; p < end - 1; ++p) {
      x[u.row_idx[p]] -= u.values[p] * xj;
    }
  }
}

void lu_solve(const LuFactors& f, std::span<const value_t> b,
              std::span<value_t> x) {
  PDSLIN_CHECK(b.size() == static_cast<std::size_t>(f.n));
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(f.n));
  for (index_t k = 0; k < f.n; ++k) x[k] = b[f.row_perm[k]];
  lower_solve_dense(f.lower, x, /*unit_diag=*/true);
  upper_solve_dense(f.upper, x);
}

SparseLowerSolver::SparseLowerSolver(const CscMatrix& l)
    : l_(l), reach_(l), x_(l.cols, 0.0) {
  PDSLIN_CHECK(l.rows == l.cols);
  PDSLIN_CHECK_MSG(l.has_values(), "SparseLowerSolver needs numeric values");
  for (index_t j = 0; j < l.cols; ++j) {
    PDSLIN_CHECK_MSG(l.col_ptr[j] < l.col_ptr[j + 1] &&
                         l.row_idx[l.col_ptr[j]] == j,
                     "diagonal must lead every column");
  }
}

std::span<const index_t> SparseLowerSolver::solve(std::span<const index_t> rows,
                                                  std::span<const value_t> vals) {
  PDSLIN_CHECK(rows.size() == vals.size());
  const std::span<const index_t> pattern = reach_.reach(rows);
  for (index_t i : pattern) x_[i] = 0.0;
  for (std::size_t k = 0; k < rows.size(); ++k) x_[rows[k]] = vals[k];
  for (index_t j : pattern) {  // ascending = topological for lower triangular
    const index_t begin = l_.col_ptr[j];
    const index_t end = l_.col_ptr[j + 1];
    PDSLIN_CHECK_MSG(l_.values[begin] != 0.0,
                     "matrix is singular at column " + std::to_string(j));
    value_t xj = x_[j] / l_.values[begin];
    x_[j] = xj;
    if (xj == 0.0) continue;
    for (index_t p = begin + 1; p < end; ++p) {
      x_[l_.row_idx[p]] -= l_.values[p] * xj;
    }
  }
  return pattern;
}

std::span<const index_t> SparseLowerSolver::symbolic(std::span<const index_t> rows) {
  return reach_.reach(rows);
}

}  // namespace pdslin
