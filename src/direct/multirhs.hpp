// Blocked triangular solution with multiple sparse right-hand sides
// (paper §IV). Columns are processed in blocks of size B: the block's fill
// patterns are unioned (padding zeros so all columns share one pattern, as a
// supernodal solver must), the symbolic step runs once per block, and the
// numeric step is a dense |union| × B kernel.
//
// Blocks are mutually independent given L, which is what the second level of
// the paper's hierarchy exploits: with opts.threads > 1 the blocks are solved
// concurrently on the shared thread pool (each worker owns its ReachSolver,
// scatter map and dense scratch) and the per-block column segments are
// stitched back in deterministic block order, so the result is bitwise
// identical to the serial path.
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
  /// Aggregate CPU seconds summed over workers (equals wall time only on the
  /// serial path; with threads > 1, wall time is what the caller measures).
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

struct MultiRhsOptions {
  index_t block_size = 60;
  /// Inner workers for the block-parallel solve; 1 = serial. Workers run on
  /// ThreadPool::shared() (nesting-safe: safe to use from within an outer
  /// subdomain task).
  unsigned threads = 1;
  /// Optional precomputed per-column reach patterns, indexed by ORIGINAL RHS
  /// column (the pattern of solution column j is (*col_patterns)[order[j]]),
  /// each sorted ascending — exactly what symbolic_solve_patterns returns.
  /// When set, the symbolic phase reuses them instead of re-running every
  /// reach (the §IV-B pipeline already computed them to build the
  /// hypergraph).
  const std::vector<std::vector<index_t>>* col_patterns = nullptr;
};

/// Solve l · X = B(:, order) in blocks of `opts.block_size` columns.
/// `l` must satisfy the SparseLowerSolver layout (diagonal first). Columns
/// beyond the last full block form one final (smaller) block, matching the
/// paper's "remaining columns gathered into one part".
MultiRhsResult solve_multi_rhs_blocked(const CscMatrix& l, const CscMatrix& b,
                                       std::span<const index_t> order,
                                       const MultiRhsOptions& opts);

/// Serial convenience overload (block size only).
MultiRhsResult solve_multi_rhs_blocked(const CscMatrix& l, const CscMatrix& b,
                                       std::span<const index_t> order,
                                       index_t block_size);

/// Symbolic-only sweep: per-column fill patterns of l⁻¹B (no numerics).
/// Used by the reordering pipeline (§IV-B builds the hypergraph from these)
/// and by the padding-cost evaluation.
std::vector<std::vector<index_t>> symbolic_solve_patterns(const CscMatrix& l,
                                                          const CscMatrix& b);

}  // namespace pdslin
