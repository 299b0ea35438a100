// Sparse LU factorization — the sequential stand-in for SuperLU in the
// PDSLin pipeline (factors every interior subdomain D_ℓ and the sparsified
// Schur complement S̃).
//
// Two kernels produce bit-identical factors behind the same entry point:
//  - Scalar: left-looking Gilbert–Peierls with threshold partial pivoting,
//    updates applied in canonical ascending-pivot order.
//  - Panel (default): supernodal blocked factorization — panels detected on
//    the symbolic Cholesky factor of the symmetrized pattern (relaxed
//    amalgamation, width cap), dense packed storage, TRSM/GEMM microkernels,
//    and pipelined scheduling of the supernodal elimination forest on the
//    shared pool. The trailing columns whose symbolic columns are full to
//    the bottom (the dense tail) form one panel factored with threshold row
//    pivoting, so off-diagonal pivots there stay on the panel path. An
//    off-diagonal pivot before the tail, a singular column, a multiplier
//    that rounds to zero or a non-finite value aborts the attempt and the
//    scalar kernel refactorizes, so results — including error behavior —
//    are identical for every input, and parallel == serial stays bitwise
//    for any LuOptions::threads.
#pragma once

#include <cstddef>
#include <vector>

#include "direct/supernodes.hpp"
#include "sparse/csr.hpp"

namespace pdslin {

enum class LuKernel {
  Scalar,  // Gilbert–Peierls reference kernel
  Panel,   // supernodal blocked kernel with scalar fallback
};

struct LuOptions {
  /// Threshold pivoting: keep the diagonal pivot when
  /// |a_jj| ≥ pivot_tol · max|column|; otherwise take the largest entry.
  /// 1.0 = classic partial pivoting, 0.0 = always diagonal (no pivoting).
  double pivot_tol = 0.1;
  /// Refuse pivots smaller than this in absolute value.
  double min_pivot = 1e-300;
  /// Factorization kernel; Panel falls back to Scalar on a pivot deviation
  /// before the dense tail.
  LuKernel kernel = LuKernel::Panel;
  /// Panel width cap for the supernodal kernel (0 = unlimited).
  index_t panel_max_width = 32;
  /// Relaxed amalgamation: allowed structural-zero fraction when merging
  /// e-tree chain columns into one panel (0 = fundamental supernodes only).
  double panel_relax = 0.25;
  /// Factor panels in fp32 (iterative refinement via lu_solve_refined
  /// recovers fp64 accuracy). Factors are no longer bitwise comparable to
  /// the scalar kernel; any off-diagonal pivot, dense tail included, still
  /// falls back to fp64 scalar.
  bool panel_fp32 = false;
  /// Pipeline workers for the panel kernel (≤ 1 = serial). Results are
  /// bitwise identical for any value.
  unsigned threads = 1;
};

/// Measurements of the supernodal kernel (zeroed when the scalar kernel
/// produced the factors).
struct LuPanelStats {
  bool used_panel = false;
  index_t panel_count = 0;
  double avg_width = 1.0;
  index_t max_width = 0;
  /// Fraction of columns living in panels of width ≥ 4.
  double wide_col_fraction = 0.0;
  long long gemm_flops = 0;   // multiply-adds in GEMM (supernode updates
                              // and the dense tail's trailing updates)
  long long total_flops = 0;  // + TRSM + in-panel factorization
  long long panel_bytes = 0;  // peak packed-panel arena footprint
  index_t tail_cols = 0;      // columns of the dense tail
  index_t tail_pivots = 0;    // off-diagonal pivots taken inside it
};

/// Factorization P·A = L·U with L unit lower triangular (unit diagonal
/// stored explicitly) and U upper triangular. Row indices of both factors
/// are pivot positions (i.e. the factors are those of the row-permuted
/// matrix). row_perm[k] = original row that became pivot row k.
struct LuFactors {
  index_t n = 0;
  CscMatrix lower;  // sorted columns, unit diagonal first in each column
  CscMatrix upper;  // sorted columns, diagonal last in each column
  std::vector<index_t> row_perm;
  /// Panel partition the supernodal kernel factored with (empty for the
  /// scalar kernel) — kept for stats and the supernodal bench ablations.
  Supernodes panels;
  LuPanelStats stats;
  [[nodiscard]] long long fill_nnz() const { return lower.nnz() + upper.nnz(); }
  /// Resident bytes of the factors incl. panel metadata (serve-layer cache
  /// accounting; the packed dense panels themselves are transient).
  [[nodiscard]] std::size_t memory_bytes() const {
    const auto csc = [](const CscMatrix& m) {
      return (m.col_ptr.size() + m.row_idx.size()) * sizeof(index_t) +
             m.values.size() * sizeof(value_t);
    };
    return csc(lower) + csc(upper) +
           (row_perm.size() + panels.start.size() + panels.of_column.size()) *
               sizeof(index_t);
  }
};

/// Factorize a square CSC matrix. Throws pdslin::Error on a zero/degenerate
/// pivot (structural or numerical singularity).
LuFactors lu_factorize(const CscMatrix& a, const LuOptions& opt = {});

/// Convenience overload for CSR input.
LuFactors lu_factorize(const CsrMatrix& a, const LuOptions& opt = {});

}  // namespace pdslin
