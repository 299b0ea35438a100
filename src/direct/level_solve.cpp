#include "direct/level_solve.hpp"

#include <numeric>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace pdslin {

namespace {

// A level narrower than this runs serially in the calling thread — the
// dispatch cost dwarfs the gather work. Bits are unaffected either way.
constexpr index_t kParallelRowCutoff = 128;

}  // namespace

const char* to_string(TrisolveScheduler s) {
  switch (s) {
    case TrisolveScheduler::Serial:   return "serial";
    case TrisolveScheduler::LevelSet: return "levelset";
  }
  return "?";
}

LevelSchedule LevelSchedule::build(const CscMatrix& a, bool lower, bool divide,
                                   const Supernodes* panels) {
  PDSLIN_SPAN("trisolve.level_build");
  PDSLIN_CHECK(a.rows == a.cols);
  PDSLIN_CHECK_MSG(a.has_values() || a.cols == 0,
                   "LevelSchedule needs numeric values");
  const index_t n = a.cols;

  LevelSchedule s;
  s.n_ = n;
  s.lower_ = lower;
  s.divide_ = divide;
  s.diag_.resize(n);
  s.row_ptr_.assign(n + 1, 0);

  // --- Validate the factor layout, lift the diagonal, count row entries. ---
  for (index_t j = 0; j < n; ++j) {
    const index_t cb = a.col_ptr[j];
    const index_t ce = a.col_ptr[j + 1];
    PDSLIN_CHECK_MSG(cb < ce, "factor column is empty");
    const index_t dpos = lower ? cb : ce - 1;
    PDSLIN_CHECK_MSG(a.row_idx[dpos] == j,
                     lower ? "diagonal must lead every column"
                           : "diagonal must close every column");
    const value_t d = a.values[dpos];
    if (divide) {
      PDSLIN_CHECK_MSG(d != 0.0,
                       "matrix is singular at column " + std::to_string(j));
    }
    s.diag_[j] = d;
    const index_t ob = lower ? cb + 1 : cb;
    const index_t oe = lower ? ce : ce - 1;
    for (index_t p = ob; p < oe; ++p) ++s.row_ptr_[a.row_idx[p] + 1];
  }
  for (index_t i = 0; i < n; ++i) s.row_ptr_[i + 1] += s.row_ptr_[i];

  // --- Row-gather transpose. Filling columns in the serial sweep direction
  // (ascending for L, descending for U) lands each row's entries in exactly
  // the serial accumulation order — the determinism contract. ---
  const index_t off_nnz = s.row_ptr_[n];
  s.col_idx_.resize(off_nnz);
  s.values_.resize(off_nnz);
  std::vector<index_t> cursor(s.row_ptr_.begin(), s.row_ptr_.end() - 1);
  const auto fill_column = [&](index_t j) {
    const index_t cb = a.col_ptr[j];
    const index_t ce = a.col_ptr[j + 1];
    const index_t ob = lower ? cb + 1 : cb;
    const index_t oe = lower ? ce : ce - 1;
    for (index_t p = ob; p < oe; ++p) {
      const index_t at = cursor[a.row_idx[p]]++;
      s.col_idx_[at] = j;
      s.values_[at] = a.values[p];
    }
  };
  if (lower) {
    for (index_t j = 0; j < n; ++j) fill_column(j);
  } else {
    for (index_t j = n - 1; j >= 0; --j) fill_column(j);
  }

  // --- Scalar per-row dependency levels (partition-independent; exported
  // for the blocked multi-RHS gather). Rows sweep in topological order, so
  // every dependency's level is final when read. ---
  s.row_level_.assign(n, 0);
  index_t max_row_level = -1;
  const auto level_row = [&](index_t i) {
    index_t lev = 0;
    for (index_t p = s.row_ptr_[i]; p < s.row_ptr_[i + 1]; ++p) {
      lev = std::max(lev, s.row_level_[s.col_idx_[p]] + 1);
    }
    s.row_level_[i] = lev;
    max_row_level = std::max(max_row_level, lev);
  };
  if (lower) {
    for (index_t i = 0; i < n; ++i) level_row(i);
  } else {
    for (index_t i = n - 1; i >= 0; --i) level_row(i);
  }
  s.row_level_count_ = n > 0 ? max_row_level + 1 : 0;

  // --- Block partition: the factor's panel column ranges when present (the
  // PR 6 supernodal tier), singleton columns otherwise. ---
  const bool use_panels =
      panels != nullptr && panels->start.size() >= 2 &&
      panels->start.front() == 0 && panels->start.back() == n &&
      panels->of_column.size() == static_cast<std::size_t>(n);
  if (use_panels) {
    s.block_start_ = panels->start;
  } else {
    s.block_start_.resize(n + 1);
    std::iota(s.block_start_.begin(), s.block_start_.end(), index_t{0});
  }
  const auto nb = static_cast<index_t>(s.block_start_.size()) - 1;
  const auto block_of = [&](index_t j) {
    return use_panels ? panels->of_column[j] : j;
  };

  // --- Block-DAG levels: a block waits for the deepest block any of its
  // rows reads from. Blocks sweep topologically (their dependencies are
  // strictly earlier in the sweep), so one pass suffices; in-block
  // dependencies are satisfied by sequential in-block execution. ---
  std::vector<index_t> blevel(nb, 0);
  index_t nlev = 0;
  for (index_t step = 0; step < nb; ++step) {
    const index_t k = lower ? step : nb - 1 - step;
    index_t lev = 0;
    for (index_t i = s.block_start_[k]; i < s.block_start_[k + 1]; ++i) {
      for (index_t p = s.row_ptr_[i]; p < s.row_ptr_[i + 1]; ++p) {
        const index_t q = block_of(s.col_idx_[p]);
        if (q != k) lev = std::max(lev, blevel[q] + 1);
      }
    }
    blevel[k] = lev;
    nlev = std::max(nlev, lev + 1);
  }
  if (nb == 0) nlev = 0;

  // --- Bucket blocks by level (ascending block id inside a level — blocks
  // of one level are independent, so the order is cosmetic). ---
  s.level_ptr_.assign(nlev + 1, 0);
  for (index_t k = 0; k < nb; ++k) ++s.level_ptr_[blevel[k] + 1];
  for (index_t lv = 0; lv < nlev; ++lv) s.level_ptr_[lv + 1] += s.level_ptr_[lv];
  s.level_blocks_.resize(nb);
  std::vector<index_t> lcur(s.level_ptr_.begin(), s.level_ptr_.end() - 1);
  for (index_t k = 0; k < nb; ++k) s.level_blocks_[lcur[blevel[k]]++] = k;
  s.level_rows_.assign(nlev, 0);
  for (index_t k = 0; k < nb; ++k) {
    s.level_rows_[blevel[k]] += s.block_start_[k + 1] - s.block_start_[k];
  }

  s.stats_.levels = nlev;
  s.stats_.blocks = nb;
  s.stats_.avg_level_width =
      nlev > 0 ? static_cast<double>(n) / static_cast<double>(nlev) : 0.0;
  s.stats_.max_level_width = 0;
  for (index_t lv = 0; lv < nlev; ++lv) {
    s.stats_.max_level_width = std::max(s.stats_.max_level_width, s.level_rows_[lv]);
  }
  s.stats_.supernodal = use_panels;

  static obs::Counter& built = obs::counter("trisolve.schedules_built");
  built.add(1);
  obs::gauge("trisolve.levels").set(static_cast<double>(nlev));
  obs::gauge("trisolve.avg_level_width").set(s.stats_.avg_level_width);
  return s;
}

LevelSchedule LevelSchedule::build_lower(const CscMatrix& l, bool unit_diag,
                                         const Supernodes* panels) {
  return build(l, /*lower=*/true, /*divide=*/!unit_diag, panels);
}

LevelSchedule LevelSchedule::build_upper(const CscMatrix& u,
                                         const Supernodes* panels) {
  return build(u, /*lower=*/false, /*divide=*/true, panels);
}

void LevelSchedule::exec_block(index_t blk, value_t* x) const {
  const index_t rb = block_start_[blk];
  const index_t re = block_start_[blk + 1];
  // Per row: apply the stored updates in the serial accumulation order
  // (including the serial kernels' x_j == 0 skip — it matters for signed
  // zeros), then divide. Each x[i] is written by exactly one block.
  const auto exec_row = [&](index_t i) {
    value_t xi = x[i];
    for (index_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      const value_t xj = x[col_idx_[p]];
      if (xj == 0.0) continue;
      xi -= values_[p] * xj;
    }
    if (divide_) xi /= diag_[i];
    x[i] = xi;
  };
  if (lower_) {
    for (index_t i = rb; i < re; ++i) exec_row(i);
  } else {
    for (index_t i = re - 1; i >= rb; --i) exec_row(i);
  }
}

void LevelSchedule::solve(std::span<value_t> x, unsigned threads) const {
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(n_));
  if (n_ == 0) return;
  WallTimer timer;
  value_t* xp = x.data();
  const auto nlev = static_cast<index_t>(level_rows_.size());
  for (index_t lv = 0; lv < nlev; ++lv) {
    const index_t lb = level_ptr_[lv];
    const index_t le = level_ptr_[lv + 1];
    if (threads <= 1 || le - lb <= 1 || level_rows_[lv] < kParallelRowCutoff) {
      for (index_t b = lb; b < le; ++b) exec_block(level_blocks_[b], xp);
    } else {
      parallel_ranges(ThreadPool::shared(), le - lb, threads,
                      [&](unsigned, long long b0, long long b1) {
                        for (long long b = b0; b < b1; ++b) {
                          exec_block(level_blocks_[lb + static_cast<index_t>(b)],
                                     xp);
                        }
                      });
    }
  }
  const double secs = timer.seconds();
  static obs::Counter& rows = obs::counter("trisolve.scheduled_rows");
  rows.add(n_);
  if (secs > 0.0) {
    obs::gauge("trisolve.rows_per_second")
        .set(static_cast<double>(n_) / secs);
  }
}

std::size_t LevelSchedule::memory_bytes() const {
  return (row_ptr_.size() + col_idx_.size() + block_start_.size() +
          level_ptr_.size() + level_blocks_.size() + level_rows_.size() +
          row_level_.size()) *
             sizeof(index_t) +
         (values_.size() + diag_.size()) * sizeof(value_t);
}

std::shared_ptr<const TrisolveSchedules> build_trisolve_schedules(
    const LuFactors& f) {
  const bool have_panels =
      f.panels.start.size() >= 2 &&
      f.panels.start.back() == f.n &&
      f.panels.of_column.size() == static_cast<std::size_t>(f.n);
  const Supernodes* panels = have_panels ? &f.panels : nullptr;
  auto s = std::make_shared<TrisolveSchedules>();
  s->lower = LevelSchedule::build_lower(f.lower, /*unit_diag=*/true, panels);
  s->upper = LevelSchedule::build_upper(f.upper, panels);
  return s;
}

void lu_solve_scheduled(const LuFactors& f, const TrisolveSchedules& s,
                        std::span<const value_t> b, std::span<value_t> x,
                        unsigned threads) {
  PDSLIN_CHECK(b.size() == static_cast<std::size_t>(f.n));
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(f.n));
  PDSLIN_CHECK(s.lower.n() == f.n && s.upper.n() == f.n);
  for (index_t k = 0; k < f.n; ++k) x[k] = b[f.row_perm[k]];
  s.lower.solve(x, threads);
  s.upper.solve(x, threads);
}

}  // namespace pdslin
