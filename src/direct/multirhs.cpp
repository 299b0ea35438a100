#include "direct/multirhs.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace pdslin {

std::vector<std::vector<index_t>> symbolic_solve_patterns(const CscMatrix& l,
                                                          const CscMatrix& b) {
  PDSLIN_CHECK(l.rows == l.cols && l.rows == b.rows);
  ReachSolver reach(l);
  std::vector<std::vector<index_t>> patterns(b.cols);
  for (index_t j = 0; j < b.cols; ++j) {
    const auto pat = reach.reach(b.col_rows(j));
    patterns[j].assign(pat.begin(), pat.end());
  }
  return patterns;
}

namespace {

// Per-worker solve context: everything a block solve mutates, so concurrent
// workers share only the read-only factor and RHS.
struct BlockWorker {
  ReachSolver reach;
  std::vector<index_t> slot;  // global row → union slot (-1 = unset)
  std::vector<index_t> union_rows;
  std::vector<std::vector<index_t>> col_patterns;
  std::vector<value_t> buf;  // |union| × width, row-major
  MultiRhsStats stats;

  BlockWorker(const CscMatrix& l, index_t block_size)
      : reach(l), slot(l.rows, -1), col_patterns(block_size) {}
};

// Columns [begin, begin+width) of the blocked solve, gathered into the
// block-local output arrays (stitched into the CSC result afterwards, in
// block order, so the parallel schedule cannot affect the result).
struct BlockOutput {
  std::vector<index_t> row_idx;
  std::vector<value_t> values;
  std::vector<index_t> col_nnz;  // per column of the block
};

void process_block(const CscMatrix& l, const CscMatrix& b,
                   std::span<const index_t> order, const MultiRhsOptions& opts,
                   index_t begin, index_t width, BlockWorker& w,
                   BlockOutput& out) {
  WallTimer timer;
  ++w.stats.num_blocks;

  // --- Symbolic: per-column reach (or the cached pattern), then the union
  // pattern. ---
  w.union_rows.clear();
  for (index_t c = 0; c < width; ++c) {
    const index_t col = order[begin + c];
    std::span<const index_t> pat;
    if (opts.col_patterns != nullptr) {
      pat = (*opts.col_patterns)[col];
    } else {
      pat = w.reach.reach(b.col_rows(col));
    }
    w.col_patterns[c].assign(pat.begin(), pat.end());
    w.stats.pattern_nnz += static_cast<long long>(pat.size());
    for (index_t i : pat) {
      if (w.slot[i] < 0) {
        w.slot[i] = 0;  // provisional mark
        w.union_rows.push_back(i);
      }
    }
  }
  std::sort(w.union_rows.begin(), w.union_rows.end());
  for (std::size_t s = 0; s < w.union_rows.size(); ++s) {
    w.slot[w.union_rows[s]] = static_cast<index_t>(s);
  }
  const auto u = static_cast<index_t>(w.union_rows.size());
  w.stats.union_rows_total += u;
  w.stats.padded_zeros += static_cast<long long>(u) * width;
  w.stats.symbolic_seconds += timer.seconds();

  // --- Numeric: dense |union| × width forward solve. ---
  timer.reset();
  w.buf.assign(static_cast<std::size_t>(u) * width, 0.0);
  for (index_t c = 0; c < width; ++c) {
    const index_t col = order[begin + c];
    const auto rows = b.col_rows(col);
    const auto vals = b.col_vals(col);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      w.buf[static_cast<std::size_t>(w.slot[rows[k]]) * width + c] = vals[k];
    }
  }
  for (index_t s = 0; s < u; ++s) {
    const index_t j = w.union_rows[s];
    value_t* xj = w.buf.data() + static_cast<std::size_t>(s) * width;
    const index_t cb = l.col_ptr[j];
    const index_t ce = l.col_ptr[j + 1];
    const value_t dj = l.values[cb];
    if (dj != 1.0) {
      for (index_t c = 0; c < width; ++c) xj[c] /= dj;
    }
    for (index_t p = cb + 1; p < ce; ++p) {
      const index_t t = w.slot[l.row_idx[p]];
      PDSLIN_ASSERT(t >= 0);  // union pattern is closed under reach
      const value_t v = l.values[p];
      value_t* xt = w.buf.data() + static_cast<std::size_t>(t) * width;
      for (index_t c = 0; c < width; ++c) xt[c] -= v * xj[c];
    }
  }
  w.stats.numeric_seconds += timer.seconds();

  // --- Gather each column on its own (unpadded) pattern. ---
  out.col_nnz.assign(width, 0);
  for (index_t c = 0; c < width; ++c) {
    for (index_t i : w.col_patterns[c]) {
      out.row_idx.push_back(i);
      out.values.push_back(
          w.buf[static_cast<std::size_t>(w.slot[i]) * width + c]);
    }
    out.col_nnz[c] = static_cast<index_t>(w.col_patterns[c].size());
  }

  for (index_t i : w.union_rows) w.slot[i] = -1;  // reset scatter map
}

void merge_stats(MultiRhsStats& into, const MultiRhsStats& from) {
  into.pattern_nnz += from.pattern_nnz;
  into.padded_zeros += from.padded_zeros;
  into.union_rows_total += from.union_rows_total;
  into.num_blocks += from.num_blocks;
  into.symbolic_seconds += from.symbolic_seconds;
  into.numeric_seconds += from.numeric_seconds;
}

}  // namespace

MultiRhsResult solve_multi_rhs_blocked(const CscMatrix& l, const CscMatrix& b,
                                       std::span<const index_t> order,
                                       const MultiRhsOptions& opts) {
  PDSLIN_SPAN("trisolve.multirhs");
  PDSLIN_CHECK(l.rows == l.cols && l.rows == b.rows);
  PDSLIN_CHECK(b.has_values() || b.nnz() == 0);
  PDSLIN_CHECK(opts.block_size >= 1);
  PDSLIN_CHECK(order.size() == static_cast<std::size_t>(b.cols));
  PDSLIN_CHECK(opts.col_patterns == nullptr ||
               opts.col_patterns->size() == static_cast<std::size_t>(b.cols));
  const index_t n = l.rows;
  const index_t m = b.cols;
  const index_t bs = opts.block_size;

  MultiRhsResult res;
  res.solution = CscMatrix(n, m);
  if (m == 0) return res;

  const index_t nblocks = (m + bs - 1) / bs;
  std::vector<BlockOutput> outs(nblocks);
  const auto width_of = [&](index_t blk) {
    return std::min<index_t>(bs, m - blk * bs);
  };

  const unsigned workers =
      std::max(1u, std::min<unsigned>(opts.threads,
                                      static_cast<unsigned>(nblocks)));
  if (workers == 1) {
    BlockWorker w(l, bs);
    for (index_t blk = 0; blk < nblocks; ++blk) {
      process_block(l, b, order, opts, blk * bs, width_of(blk), w, outs[blk]);
    }
    res.stats = w.stats;
  } else {
    // Dynamic block distribution: each worker task owns its context and
    // pulls the next unprocessed block. Blocks land in outs[] by index, so
    // the schedule never changes the stitched result.
    std::vector<std::unique_ptr<BlockWorker>> ctx;
    ctx.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      ctx.push_back(std::make_unique<BlockWorker>(l, bs));
    }
    std::atomic<index_t> next{0};
    TaskGroup group;
    for (unsigned w = 0; w < workers; ++w) {
      group.run([&, w] {
        BlockWorker& bw = *ctx[w];
        for (index_t blk; (blk = next.fetch_add(1)) < nblocks;) {
          process_block(l, b, order, opts, blk * bs, width_of(blk), bw,
                        outs[blk]);
        }
      });
    }
    group.wait();
    for (const auto& c : ctx) merge_stats(res.stats, c->stats);
  }

  // --- Stitch per-block column segments in deterministic block order. ---
  std::size_t total = 0;
  for (const auto& o : outs) total += o.row_idx.size();
  res.solution.row_idx.reserve(total);
  res.solution.values.reserve(total);
  for (index_t blk = 0; blk < nblocks; ++blk) {
    const BlockOutput& o = outs[blk];
    res.solution.row_idx.insert(res.solution.row_idx.end(), o.row_idx.begin(),
                                o.row_idx.end());
    res.solution.values.insert(res.solution.values.end(), o.values.begin(),
                               o.values.end());
    const index_t begin = blk * bs;
    for (std::size_t c = 0; c < o.col_nnz.size(); ++c) {
      res.solution.col_ptr[begin + static_cast<index_t>(c) + 1] =
          res.solution.col_ptr[begin + static_cast<index_t>(c)] + o.col_nnz[c];
    }
  }
  res.stats.padded_zeros -= res.stats.pattern_nnz;
  static obs::Counter& rhs_blocks = obs::counter("trisolve.rhs_blocks");
  static obs::Counter& padded = obs::counter("trisolve.padded_zeros");
  rhs_blocks.add(res.stats.num_blocks);
  padded.add(res.stats.padded_zeros);
  return res;
}

MultiRhsResult solve_multi_rhs_blocked(const CscMatrix& l, const CscMatrix& b,
                                       std::span<const index_t> order,
                                       index_t block_size) {
  MultiRhsOptions opts;
  opts.block_size = block_size;
  return solve_multi_rhs_blocked(l, b, order, opts);
}

}  // namespace pdslin
