// Triangular solves with the LU factors: dense right-hand sides and sparse
// right-hand sides (Gilbert–Peierls reach + scatter), the kernel behind
// G_ℓ = L⁻¹ Ê_ℓ and W_ℓ = F̂_ℓ U⁻¹ in the Schur assembly (paper Eq. (5)).
#pragma once

#include <span>

#include "direct/lu.hpp"
#include "direct/reach.hpp"

namespace pdslin {

/// Dense forward solve L·x = b in place. L must be lower triangular CSC with
/// the diagonal first in every column (the LuFactors layout); `unit_diag`
/// says whether to skip the division. Column j is skipped when x_j == 0.
void lower_solve_dense(const CscMatrix& l, std::span<value_t> x, bool unit_diag);

/// The same sweep over the columns `cols` (ascending) only. Bitwise equal to
/// the full sweep when x is zero outside `cols` and `cols` is closed under
/// L's pattern (it holds b's nonzeros and their reach, Gilbert): every
/// column left out would hold x_j == 0 and be skipped.
void lower_solve_dense(const CscMatrix& l, std::span<value_t> x, bool unit_diag,
                       std::span<const index_t> cols);

/// Dense backward solve U·x = b in place, U given by rows as `ut` — the CSC
/// arrays of Uᵀ, diagonal first (LuFactors::upper_t). Row i gathers its
/// entries in descending column order and skips x_j == 0: the order and the
/// skip of a column-by-column scatter, so the bits are a scatter's.
void upper_solve_dense(const CscMatrix& ut, std::span<value_t> x);

/// The same sweep over the rows `rows` (ascending, walked descending) only.
/// x is exact at those rows when `rows` is closed under U's rows (row i in
/// it and U_ij ≠ 0 put j in it); other rows are left untouched.
void upper_solve_dense(const CscMatrix& ut, std::span<value_t> x,
                       std::span<const index_t> rows);

/// x = A⁻¹ b using the factors (applies the row permutation internally).
void lu_solve(const LuFactors& f, std::span<const value_t> b, std::span<value_t> x);

/// Empty: the kernels in this header are the only triangular solves. It
/// survives only because benchmark/harness/layers.cpp still passes
/// SchurAssemblyOptions::trisolve to the SchurPreconditioner constructor;
/// delete it, that field and that parameter together.
struct TrisolveOptions {};

/// Sparse-RHS lower-triangular solver with reusable workspace.
/// Requires the diagonal to be the first entry of every column; divides by
/// it, so both L (unit) and Uᵀ (non-unit) work.
class SparseLowerSolver {
 public:
  explicit SparseLowerSolver(const CscMatrix& l);

  /// Solve l·x = b for the sparse b given by (rows, vals). Returns the fill
  /// pattern (topologically/ascending ordered); numeric values are read via
  /// value(). The view is valid until the next solve call.
  std::span<const index_t> solve(std::span<const index_t> rows,
                                 std::span<const value_t> vals);

  /// Symbolic-only variant: the pattern of l⁻¹ b.
  std::span<const index_t> symbolic(std::span<const index_t> rows);

  [[nodiscard]] value_t value(index_t i) const { return x_[i]; }
  [[nodiscard]] index_t n() const { return reach_.n(); }

 private:
  const CscMatrix& l_;
  ReachSolver reach_;
  std::vector<value_t> x_;
};

}  // namespace pdslin
