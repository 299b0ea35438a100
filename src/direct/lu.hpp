// Sparse LU factorization — the sequential stand-in for SuperLU in the
// PDSLin pipeline (factors every interior subdomain D_ℓ and the sparsified
// Schur complement S̃).
//
// Two kernels give bit-identical factors, so which one ran is not an
// option: lu_factorize runs the panel kernel and, where its attempt aborts,
// the scalar one.
//  - Scalar (scalar_lu_factorize): left-looking Gilbert–Peierls with
//    threshold partial pivoting, updates applied in canonical
//    ascending-pivot order; the reference the panel kernel reproduces.
//  - Panel (direct/panel_lu.hpp): supernodal blocked factorization with a
//    dense, row-pivoted tail. An off-diagonal pivot before the tail, a
//    singular column, a multiplier that rounds to zero or a non-finite value
//    aborts it, so results — including error behavior — are identical for
//    every input.
#pragma once

#include <cstddef>
#include <vector>

#include "direct/analysis.hpp"
#include "sparse/csr.hpp"

namespace pdslin {

struct LuOptions {
  /// Threshold pivoting: keep the diagonal pivot when
  /// |a_jj| ≥ pivot_tol · max|column|; otherwise take the largest entry.
  /// 1.0 = classic partial pivoting, 0.0 = always diagonal (no pivoting).
  double pivot_tol = 0.1;
  /// Refuse pivots smaller than this in absolute value.
  double min_pivot = 1e-300;
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
///
/// L is stored by columns and U by rows. `upper_t` holds the CSC arrays of
/// Uᵀ: its column i is row i of U, sorted, diagonal first. The forward solve
/// scatters L's columns and skips x_j == 0, which keeps the reach of a
/// sparse right-hand side cheap. The backward solve gathers U's rows, so a
/// caller that reads only some rows of U⁻¹x can compute only those (the
/// Schur operator, core/schur_solver.cpp), and the W = F̂·U⁻¹ solve of the
/// Schur assembly runs on `upper_t` as a lower-triangular factor.
struct LuFactors {
  index_t n = 0;
  CscMatrix lower;    // by columns, sorted, unit diagonal first
  CscMatrix upper_t;  // U by rows: CSC of Uᵀ, sorted, diagonal first
  std::vector<index_t> row_perm;
  LuPanelStats stats;
  [[nodiscard]] long long fill_nnz() const { return lower.nnz() + upper_t.nnz(); }
  /// Resident bytes of the factors (serve-layer cache accounting; the packed
  /// dense panels of the supernodal kernel are transient).
  [[nodiscard]] std::size_t memory_bytes() const {
    const auto csc = [](const CscMatrix& m) {
      return (m.col_ptr.size() + m.row_idx.size()) * sizeof(index_t) +
             m.values.size() * sizeof(value_t);
    };
    return csc(lower) + csc(upper_t) + row_perm.size() * sizeof(index_t);
  }
};

/// Factorize a square CSC matrix in its own order: the panel kernel, or the
/// scalar kernel where the panel attempt aborts. Throws pdslin::Error on a
/// zero/degenerate pivot (structural or numerical singularity).
LuFactors lu_factorize(const CscMatrix& a, const LuOptions& opt = {});

/// Convenience overload for CSR input.
LuFactors lu_factorize(const CsrMatrix& a, const LuOptions& opt = {});

/// Factorize a permuted symmetrically by `an.colmap`, where `an` is
/// analyze_pattern(a, ·): the factors of permute_symmetric(a, an.colmap),
/// which is formed once, and the panel kernel reads an's pattern and
/// SymbolicFactor.
LuFactors lu_factorize(const CsrMatrix& a, const PatternAnalysis& an,
                       const LuOptions& opt = {});

/// The scalar Gilbert–Peierls kernel alone: lu_factorize's fallback and the
/// reference its factors are checked against (check/invariants.hpp).
LuFactors scalar_lu_factorize(const CscMatrix& a, const LuOptions& opt = {});

}  // namespace pdslin
