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

namespace {

std::size_t csc_bytes(const CscMatrix& m) {
  return (m.col_ptr.size() + m.row_idx.size()) * sizeof(index_t) +
         m.values.size() * sizeof(value_t);
}

// The first `cols` columns of m, as an m.rows × cols CSC; m is consumed.
CscMatrix leading_columns(CscMatrix m, index_t cols) {
  const auto nnz = static_cast<std::size_t>(m.col_ptr[cols]);
  m.cols = cols;
  m.col_ptr.resize(static_cast<std::size_t>(cols) + 1);
  m.row_idx.resize(nnz);
  m.values.resize(nnz);
  m.col_ptr.shrink_to_fit();
  m.row_idx.shrink_to_fit();
  m.values.shrink_to_fit();
  return m;
}

}  // namespace

std::size_t BlockLuFactors::memory_bytes() const {
  return csc_bytes(lower_head) + csc_bytes(upper_t_head) +
         block.size() * sizeof(value_t) + row_perm.size() * sizeof(index_t);
}

index_t dense_block_start(const LuFactors& f) {
  const index_t n = f.n;
  // CSC bytes of L's columns and U's rows from c on, for c = n down to 0;
  // the smallest c whose dense block is no larger wins.
  long long csc = 0;
  index_t start = n;
  for (index_t c = n - 1; c >= 0; --c) {
    csc += 12LL * (f.lower.col_nnz(c) + f.upper_t.col_nnz(c)) + 8;
    const long long nb = n - c;
    if (8 * nb * nb <= csc) start = c;
  }
  for (index_t j = start; j < n; ++j) {
    for (const value_t v : f.lower.col_vals(j)) {
      if (v == 0.0) return n;
    }
    for (const value_t v : f.upper_t.col_vals(j)) {
      if (v == 0.0) return n;
    }
  }
  return start;
}

BlockLuFactors with_dense_block(LuFactors f, index_t start) {
  PDSLIN_CHECK(start >= 0 && start <= f.n);
  BlockLuFactors b;
  b.n = f.n;
  b.start = start;
  b.stored_nnz = f.fill_nnz();
  const index_t nb = f.n - start;
  b.block.assign(static_cast<std::size_t>(nb) * static_cast<std::size_t>(nb),
                 0.0);
  const auto at = [&](index_t r, index_t c) -> value_t& {
    return b.block[static_cast<std::size_t>(c - start) * nb + (r - start)];
  };
  for (index_t j = start; j < f.n; ++j) {
    // L's unit diagonal leads column j and is implied; U's diagonal leads
    // row j and takes its place.
    for (index_t p = f.lower.col_ptr[j] + 1; p < f.lower.col_ptr[j + 1]; ++p) {
      PDSLIN_CHECK_MSG(f.lower.values[p] != 0.0, "stored zero in a dense block");
      at(f.lower.row_idx[p], j) = f.lower.values[p];
    }
    for (index_t p = f.upper_t.col_ptr[j]; p < f.upper_t.col_ptr[j + 1]; ++p) {
      PDSLIN_CHECK_MSG(f.upper_t.values[p] != 0.0,
                       "stored zero in a dense block");
      at(j, f.upper_t.row_idx[p]) = f.upper_t.values[p];
    }
  }
  b.lower_head = leading_columns(std::move(f.lower), start);
  b.upper_t_head = leading_columns(std::move(f.upper_t), start);
  b.row_perm = std::move(f.row_perm);
  return b;
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
