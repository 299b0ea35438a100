// Triangular solves with the LU factors on dense right-hand sides: the
// subdomain solves D_ℓ⁻¹ of the Schur operator and the LU(S̃) apply. The
// sparse right-hand sides of the Schur assembly (G_ℓ = L⁻¹ Ê_ℓ and
// W_ℓ = F̂_ℓ U⁻¹, paper Eq. (5)) go through direct/multirhs.hpp.
#pragma once

#include <span>

#include "direct/kernels.hpp"
#include "direct/lu.hpp"

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

/// LU factors whose trailing block [start, n)² is stored dense,
/// column-major: unit L strictly below the diagonal, U on and above it. The
/// head stays in CSC: L's columns and U's rows before `start`, each over
/// all n positions (docs/ALGORITHMS.md §2.5).
struct BlockLuFactors {
  index_t n = 0;
  index_t start = 0;           // first column of the dense block; n = none
  CscMatrix lower_head;        // n × start: L's columns [0, start)
  CscMatrix upper_t_head;      // n × start: U's rows [0, start), as Uᵀ
  std::vector<value_t> block;  // (n − start)², column-major
  std::vector<index_t> row_perm;
  /// Stored entries of the CSC factors it was made from (LuFactors::fill_nnz).
  long long stored_nnz = 0;
  [[nodiscard]] std::size_t memory_bytes() const;
};

/// The first column c at which dense storage of the trailing block,
/// 8·(n − c)² bytes, is no larger than the CSC storage of L's columns and
/// U's rows from c on; n (no block) when that block would hold a stored
/// entry equal to 0.0, which the dense sweep could not tell from an absent
/// one.
index_t dense_block_start(const LuFactors& f);

/// f with its trailing block from `start` moved into dense storage. No
/// stored entry of that block may equal 0.0 (checked).
BlockLuFactors with_dense_block(LuFactors f, index_t start);

/// x ← U⁻¹ L⁻¹ x with x already in pivot order: the CSC head columns of L,
/// the dense block (panel::dense_lu_solve, or `kernels`' build of it), the
/// CSC head rows of U. Bitwise the lower_solve_dense + upper_solve_dense
/// sweeps of the factors f was made from.
void block_lu_solve(const BlockLuFactors& f, std::span<value_t> x,
                    const panel::KernelTable* kernels = nullptr);

/// Empty: the kernels in this header are the only triangular solves. It
/// survives only because benchmark/harness/layers.cpp still passes
/// SchurAssemblyOptions::trisolve to the SchurPreconditioner constructor;
/// delete it, that field and that parameter together.
struct TrisolveOptions {};

}  // namespace pdslin
