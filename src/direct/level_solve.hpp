// Parallel level-scheduled triangular solves (ROADMAP item 3; HBMC of
// Iwashita–Li–Fukaya, arXiv:1908.00741).
//
// A triangular solve's column dependencies form a DAG; grouping columns into
// *level sets* (all columns whose longest dependency chain has equal length)
// exposes parallelism inside one L/U solve — the dimension the blocked
// multi-RHS solver and the subdomain fan-out do not touch. Where the factor
// carries a supernodal panel partition (LuFactors::panels, PR 6), whole
// panels are the scheduling unit instead of single columns — the "block"
// tier of HBMC — which shortens the DAG and keeps each task a dense-ish
// strip.
//
// Determinism contract (same as PR 1/PR 6): parallel == serial *bitwise* at
// any thread count. The serial kernels in trisolve.cpp are column-scatter;
// this module stores a row-gather transpose whose per-row entry order equals
// the serial accumulation order (ascending columns for L, descending for U),
// replicates the serial x_j == 0 skip, and has every x[i] written by exactly
// one task. So the floating-point op sequence per element is identical to
// the serial solve, races cannot exist, and the scheduler choice can never
// split the serve fingerprint cache.
//
// The symbolic phase (LevelSchedule::build_*) runs once per factor and is
// cached alongside it (SubdomainFactorization / SchurPreconditioner), riding
// the serve factor cache via memory_bytes().
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "direct/lu.hpp"

namespace pdslin {

enum class TrisolveScheduler {
  Serial,    // the plain column-scatter kernels in trisolve.cpp
  LevelSet,  // level-scheduled row-gather on the shared pool
};

const char* to_string(TrisolveScheduler s);

/// How triangular solves execute; plumbed through SchurAssemblyOptions and
/// the CLI (--trisolve). Deliberately *excluded* from the serve fingerprint:
/// both schedulers produce bitwise-identical x, so differing choices must
/// share one cache entry.
struct TrisolveOptions {
  TrisolveScheduler scheduler = TrisolveScheduler::Serial;
  /// Workers per level (1 = serial execution of a level-set schedule).
  unsigned threads = 1;
};

/// Symbolic level-set schedule for one triangular factor: a row-gather
/// transpose plus a block DAG levelization. Immutable after build; any
/// number of threads may run solve() concurrently on distinct x vectors.
class LevelSchedule {
 public:
  struct Stats {
    index_t levels = 0;           // block-DAG depth
    index_t blocks = 0;           // scheduling units (panels or columns)
    double avg_level_width = 0.0; // rows per level (n / levels)
    index_t max_level_width = 0;  // rows in the widest level
    bool supernodal = false;      // panel partition in use
  };

  /// Schedule for a lower-triangular CSC factor with the diagonal leading
  /// every column (the LuFactors::lower layout, and transpose(upper)).
  /// `unit_diag` mirrors lower_solve_dense. Throws pdslin::Error on a
  /// numerically zero diagonal when the solve would divide by it.
  static LevelSchedule build_lower(const CscMatrix& l, bool unit_diag,
                                   const Supernodes* panels = nullptr);

  /// Schedule for an upper-triangular CSC factor with the diagonal last in
  /// every column (the LuFactors::upper layout). Always divides.
  static LevelSchedule build_upper(const CscMatrix& u,
                                   const Supernodes* panels = nullptr);

  /// In-place triangular solve, bitwise identical to the corresponding
  /// serial kernel at any `threads`. Levels run in sequence; blocks inside a
  /// level run on ThreadPool::shared() (nesting-safe — callable from within
  /// an outer subdomain task).
  void solve(std::span<value_t> x, unsigned threads = 1) const;

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] index_t n() const { return n_; }
  /// Scalar (per-row, partition-independent) dependency level of each row:
  /// rows sharing a value are mutually independent. The blocked multi-RHS
  /// solver buckets union rows with this.
  [[nodiscard]] std::span<const index_t> row_level() const { return row_level_; }
  [[nodiscard]] index_t row_level_count() const { return row_level_count_; }
  /// Heap bytes held by the schedule — charged into the owning solver's
  /// memory_bytes() so the serve cache accounts for it.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  static LevelSchedule build(const CscMatrix& a, bool lower, bool divide,
                             const Supernodes* panels);
  void exec_block(index_t blk, value_t* x) const;

  index_t n_ = 0;
  bool lower_ = true;   // execution direction (rows ascending vs descending)
  bool divide_ = true;  // divide by diag_ after the gather
  // Row-gather transpose of the off-diagonal entries; each row's entries are
  // stored in the serial accumulation order (see file comment).
  std::vector<index_t> row_ptr_;
  std::vector<index_t> col_idx_;
  std::vector<value_t> values_;
  std::vector<value_t> diag_;
  // Block partition (panel column ranges, or singletons) and its levelization.
  std::vector<index_t> block_start_;   // nblocks + 1
  std::vector<index_t> level_ptr_;     // nlevels + 1, into level_blocks_
  std::vector<index_t> level_blocks_;  // blocks grouped by level
  std::vector<index_t> level_rows_;    // rows per level (parallel cutoff)
  std::vector<index_t> row_level_;     // scalar per-row levels
  index_t row_level_count_ = 0;
  Stats stats_;
};

/// Both schedules of one LU factorization, built from the stored panel
/// partition. Held by shared_ptr in SubdomainFactorization so the (copyable)
/// factorization stays cheap to move around.
struct TrisolveSchedules {
  LevelSchedule lower;
  LevelSchedule upper;
  [[nodiscard]] std::size_t memory_bytes() const {
    return lower.memory_bytes() + upper.memory_bytes();
  }
};

/// Symbolic phase for a whole factorization: level schedules for L and U
/// reusing f.panels as the block partition when populated.
std::shared_ptr<const TrisolveSchedules> build_trisolve_schedules(
    const LuFactors& f);

/// x = A⁻¹ b through the cached schedules — bitwise identical to lu_solve()
/// at any thread count.
void lu_solve_scheduled(const LuFactors& f, const TrisolveSchedules& s,
                        std::span<const value_t> b, std::span<value_t> x,
                        unsigned threads = 1);

}  // namespace pdslin
