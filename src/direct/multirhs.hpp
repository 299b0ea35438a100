// Blocked triangular solution with multiple sparse right-hand sides
// (paper §IV). Columns are processed in blocks of size B: the block's fill
// patterns are unioned (padding zeros so all columns share one pattern, as a
// supernodal solver must), the symbolic step runs once per block (one reach
// for the union, per-row column bitmasks for each column's own pattern), and
// the numeric step is a dense |union| × B kernel. Blocks run in order on
// the calling thread, each appending its columns to the result.
//
// The padded-zero counts and solve times this module reports are the
// quantities Figures 4 and 5 of the paper plot.
#pragma once

#include <span>
#include <vector>

#include "direct/trisolve.hpp"
#include "sparse/csr.hpp"

namespace pdslin {

struct MultiRhsStats {
  long long pattern_nnz = 0;     // Σ per-column fill pattern sizes (nnz of G)
  long long padded_zeros = 0;    // Σ_blocks B·|union| − pattern_nnz
  long long union_rows_total = 0;
  index_t num_blocks = 0;
  /// Wall seconds of the symbolic and numeric steps, summed over blocks.
  double symbolic_seconds = 0.0;
  double numeric_seconds = 0.0;
  /// Fraction of the dense block entries that are padding: padded / (padded
  /// + pattern_nnz) — the y-axis of Fig. 4.
  [[nodiscard]] double padded_fraction() const {
    const double denom = static_cast<double>(padded_zeros + pattern_nnz);
    return denom == 0.0 ? 0.0 : static_cast<double>(padded_zeros) / denom;
  }
};

struct MultiRhsResult {
  /// Solution columns, same order as the input `order` (solution.col j is
  /// the solve for RHS column order[j]).
  CscMatrix solution;
  MultiRhsStats stats;
};

/// Solve l · X = B(:, order) in blocks of `block_size` columns.
/// `l` must hold its diagonal first in every column, and the solve divides
/// by it: LuFactors::lower, or upper_t for the W = F̂·U⁻¹ solve. Columns
/// beyond the last full block form one final (smaller) block, matching the
/// paper's "remaining columns gathered into one part".
MultiRhsResult solve_multi_rhs_blocked(const CscMatrix& l, const CscMatrix& b,
                                       std::span<const index_t> order,
                                       index_t block_size);

/// Symbolic-only sweep: per-column fill patterns of l⁻¹B (no numerics).
/// Used by the reordering pipeline (§IV-B builds the hypergraph from these)
/// and by the padding-cost evaluation. The blocked solve's own symbolic
/// step: one reach per block of up to 64 columns, each column's pattern
/// read off the per-row column bitmasks.
std::vector<std::vector<index_t>> symbolic_solve_patterns(const CscMatrix& l,
                                                          const CscMatrix& b);

/// The CSC of sparse right-hand sides `b` (one row per row of A) with their
/// rows in the factor order of LU(A permuted by colmap): row k of the
/// result is b's row colmap[row_perm[k]]. Entries are not merged.
CscMatrix rhs_in_factor_order(const CsrMatrix& b,
                              std::span<const index_t> colmap,
                              std::span<const index_t> row_perm);

}  // namespace pdslin
