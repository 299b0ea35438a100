// Dense microkernels for the supernodal panel LU (direct/panel_lu), and the
// block update of the blocked multi-RHS solve (direct/multirhs).
//
// A panel is stored column-major: nr rows × w columns, where local rows
// [0, tri0) are the panel's U-part (global rows above the first column),
// [tri0, tri0 + w) the diagonal triangle (exactly the panel's own columns),
// and [tri0 + w, nr) the below-diagonal block shared by all columns.
//
// Bitwise contract: the scalar Gilbert–Peierls kernel applies, to every
// factor element, its update terms `x -= l·u` in ascending pivot order with
// plain (non-fused) multiply-subtract expressions. Every kernel here
// preserves exactly that per-element order and expression shape — every
// element meets its pivots in ascending order and the inner loops touch
// distinct elements — so the packed path reproduces the scalar
// factorization bit for bit. Terms whose coefficient is an exact 0.0
// (structural padding from relaxed amalgamation) are skipped: subtracting
// ±0.0 can only flip the sign of a zero, and zeros are dropped identically
// at extraction.
//
// trsm_unit_lower, gemm_minus, factorize_columns and rhs_block_solve are
// built twice from one source, for the baseline target and for AVX2
// (direct/kernel_path.hpp). The functions below dispatch to the path the
// CPU supports; kernel_table() names each path's build explicitly.
#pragma once

#include "direct/kernel_path.hpp"
#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace pdslin::panel {

/// Y ← L_dd⁻¹ Y for the unit lower triangle of a panel. `tri` points at the
/// panel storage (nr × w, column-major, triangle at local rows
/// [tri0, tri0 + w)); y is w × ncol row-major.
void trsm_unit_lower(const value_t* tri, index_t nr, index_t tri0, index_t w,
                     value_t* y, index_t ncol);

/// C ← C − L·Y: L is ni × w with column k at lblk + k·lda (the below-diagonal
/// block of a panel), Y is w × ncol row-major, C is ni × ncol column-major
/// with column q at c + q·ldc (a gathered block, ldc = ni, or a block of a
/// panel updated in place, ldc = its row count). Each column of C takes its
/// w pivots ascending; the ni-inner loop is contiguous.
void gemm_minus(const value_t* lblk, index_t lda, index_t ni, index_t w,
                const value_t* y, index_t ncol, value_t* c, index_t ldc);

/// In-place left-looking factorization of panel columns [j0, j1), applying
/// only the updates of pivots j0 … jj−1 (earlier pivots are the caller's).
/// Each column's pivot follows the scalar kernel's exact rule: the largest
/// |value| among the candidate rows (local rows [tri0 + jj, nr)), ties to
/// the smallest original row, unless the diagonal row is still a candidate
/// with |diag| ≥ pivot_tol·max and |diag| > min_pivot.
///  - perm == nullptr: pivots are confined to the diagonal (the panel's rows
///    are its original rows); a column that wants another row fails.
///  - perm != nullptr (the dense tail, nr == tri0 + w): perm[i] is the
///    panel-local column whose original row sits at local row tri0 + i. A
///    pivot row is exchanged with row tri0 + jj across all w columns, and
///    perm follows; on return perm[jj] is the row that pivoted column jj.
/// Fails (returns false) on a singular column (max ≤ min_pivot) and on a
/// multiplier that rounds to zero from a nonzero numerator — the scalar
/// kernel keeps that explicit zero in L, which packed extraction cannot.
bool factorize_columns(value_t* pan, index_t nr, index_t tri0, index_t w,
                       index_t j0, index_t j1, double pivot_tol,
                       double min_pivot, index_t* perm);

/// Forward solve of one block of the blocked multi-RHS solve: x is
/// u × width, row-major, row s holding the block's values at global row
/// rows[s] (ascending); slot maps a global row to its row of x. For each s
/// in ascending order, row s is divided by l's diagonal at column rows[s]
/// (skipped when it is exactly 1), and l(i, rows[s])·x_s is subtracted from
/// row slot[i] for every entry below the diagonal. `l` has its diagonal
/// first in each column, and every row it reaches from rows[] is in rows[].
void rhs_block_solve(const CscMatrix& l, const index_t* rows, index_t u,
                     const index_t* slot, value_t* x, index_t width);

/// One path's build of the four kernels above. Set-up calls the
/// dispatching functions; tests and benches use these to call one path.
struct KernelTable {
  decltype(&trsm_unit_lower) trsm;
  decltype(&gemm_minus) gemm;
  decltype(&factorize_columns) factorize;
  decltype(&rhs_block_solve) rhs_block;
};

/// The kernels of path p, or nullptr when this build or this CPU lacks it.
const KernelTable* kernel_table(KernelPath p);

/// Gather a block out of a panel through precomputed local positions:
/// out(i, q) = pan[jloc[q]·nr + pos[i]], with pos[i] < 0 (slots structurally
/// absent from the target, hence exactly zero) reading as 0.0.
/// row_major → out[i·ncol + q] (TRSM operand), else out[q·nrows + i]
/// (GEMM accumulator, contiguous in i).
void gather_block(const value_t* pan, index_t nr, const index_t* pos,
                  index_t nrows, const index_t* jloc, index_t ncol,
                  bool row_major, value_t* out);

/// Scatter-assign the block back; pos[i] < 0 slots are dropped (their value
/// is an exact ±0.0 with no slot to land in).
void scatter_block(const value_t* block, index_t nrows, index_t ncol,
                   bool row_major, const index_t* pos, const index_t* jloc,
                   value_t* pan, index_t nr);

}  // namespace pdslin::panel
