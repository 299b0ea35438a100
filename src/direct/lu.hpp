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
//    dense, row-pivoted region. An off-diagonal pivot before the region, a
//    singular column, a multiplier that rounds to zero or a non-finite value
//    aborts it, so results — including error behavior — are identical for
//    every input.
#pragma once

#include <cstddef>
#include <span>
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
                              // and the dense region's trailing updates)
  long long total_flops = 0;  // + TRSM + in-panel factorization
  long long panel_bytes = 0;  // peak packed-panel arena footprint
  index_t tail_cols = 0;      // columns of the dense region
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
  /// Stored entries of the CSC factors (LuFactors::fill_nnz).
  long long stored_nnz = 0;
  [[nodiscard]] std::size_t memory_bytes() const;
};

/// The byte rule of a dense trailing block, on per-column counts:
/// entries[j] counts L's column j and U's row j together. Returns the first
/// column c at which dense storage of the trailing block, 8·(n − c)² bytes,
/// is no larger than the CSC storage of the entries from c on (12 bytes an
/// entry, 8 a column); n when there is none. The panel kernel applies it to
/// the symbolic counts to place its dense region, and the extraction to
/// the factor's own entries to place the block.
index_t dense_region_start(std::span<const index_t> entries);

/// dense_region_start on f's stored entries; n (no block) when that block
/// would hold a stored entry equal to 0.0, which the dense sweep could not
/// tell from an absent one.
index_t dense_block_start(const LuFactors& f);

/// f with its trailing block from `start` moved into dense storage. No
/// stored entry of that block may equal 0.0 (checked). Only a scalar-kernel
/// result takes this path: the panel kernel writes its block itself.
BlockLuFactors with_dense_block(LuFactors f, index_t start);

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

/// The factors of permute_symmetric(a, an.colmap) as LU(S̃) keeps them:
/// the trailing block from dense_block_start's rule in dense storage.
/// The panel kernel writes the block straight from its packed columns;
/// where its attempt aborts, the scalar kernel's factors are moved into
/// one by with_dense_block. Either way the result is with_dense_block of
/// the scalar factors at dense_block_start, bit for bit.
BlockLuFactors block_lu_factorize(const CsrMatrix& a, const PatternAnalysis& an,
                                  const LuOptions& opt = {});

/// The scalar Gilbert–Peierls kernel alone: lu_factorize's fallback and the
/// reference its factors are checked against (check/invariants.hpp).
LuFactors scalar_lu_factorize(const CscMatrix& a, const LuOptions& opt = {});

}  // namespace pdslin
