#include "direct/multirhs.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "direct/kernels.hpp"
#include "direct/reach.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace pdslin {

CscMatrix rhs_in_factor_order(const CsrMatrix& b,
                              std::span<const index_t> colmap,
                              std::span<const index_t> row_perm) {
  PDSLIN_CHECK(colmap.size() == static_cast<std::size_t>(b.rows) &&
               row_perm.size() == colmap.size());
  std::vector<index_t> new_of(colmap.size());
  for (index_t k = 0; k < b.rows; ++k) new_of[colmap[row_perm[k]]] = k;
  CscMatrix out(b.rows, b.cols);
  for (const index_t c : b.col_idx) ++out.col_ptr[c + 1];
  for (index_t j = 0; j < b.cols; ++j) out.col_ptr[j + 1] += out.col_ptr[j];
  out.row_idx.resize(b.col_idx.size());
  out.values.resize(b.values.size());
  std::vector<index_t> next(out.col_ptr.begin(), out.col_ptr.end() - 1);
  for (index_t i = 0; i < b.rows; ++i) {
    for (index_t q = b.row_ptr[i]; q < b.row_ptr[i + 1]; ++q) {
      const index_t slot = next[b.col_idx[q]]++;
      out.row_idx[slot] = new_of[i];
      out.values[slot] = b.values[q];
    }
  }
  out.sort_cols();
  return out;
}

namespace {

// Block solve scratch, reused across the blocks of one solve.
struct BlockScratch {
  ReachSolver reach;
  std::vector<index_t> slot;  // global row → union slot (-1 = unset)
  std::vector<index_t> seeds;  // the block's RHS rows, concatenated
  std::vector<index_t> union_rows;
  std::vector<std::uint64_t> masks;  // per union row: the columns reaching it
  std::vector<std::vector<index_t>> col_patterns;
  std::vector<value_t> buf;  // |union| × width, row-major

  BlockScratch(const CscMatrix& l, index_t block_size)
      : reach(l), slot(l.rows, -1), col_patterns(block_size) {}
};

// The union is the reach of all the block's RHS rows, from one DFS. Column
// c's pattern is the reach of its own rows: each union row carries a bitmask
// of the columns that reach it, seeded by the columns holding the row and
// OR-ed along L's edges j → i (i > j, the edges the DFS follows) in
// ascending j, a topological order, so every mask is final before it is
// read. Reading the patterns off the numeric result instead would lose
// entries that cancel to exactly zero.
void reach_block_patterns(const CscMatrix& l, const CscMatrix& b,
                          std::span<const index_t> cols, BlockScratch& w) {
  const auto width = static_cast<index_t>(cols.size());
  w.seeds.clear();
  for (const index_t col : cols) {
    const auto rows = b.col_rows(col);
    w.seeds.insert(w.seeds.end(), rows.begin(), rows.end());
  }
  const auto reach = w.reach.reach(w.seeds);
  w.union_rows.assign(reach.begin(), reach.end());
  const auto u = static_cast<index_t>(w.union_rows.size());
  for (index_t s = 0; s < u; ++s) w.slot[w.union_rows[s]] = s;
  if (width == 1) {  // the one column's pattern is the union
    w.col_patterns[0].assign(w.union_rows.begin(), w.union_rows.end());
    return;
  }

  const std::size_t words = (static_cast<std::size_t>(width) + 63) / 64;
  w.masks.assign(static_cast<std::size_t>(u) * words, 0);
  for (index_t c = 0; c < width; ++c) {
    const std::uint64_t bit = std::uint64_t{1} << (c % 64);
    for (const index_t r : b.col_rows(cols[c])) {
      w.masks[static_cast<std::size_t>(w.slot[r]) * words + c / 64] |= bit;
    }
  }
  for (index_t s = 0; s < u; ++s) {
    const index_t j = w.union_rows[s];
    const std::uint64_t* from = w.masks.data() + s * words;
    for (index_t p = l.col_ptr[j]; p < l.col_ptr[j + 1]; ++p) {
      const index_t i = l.row_idx[p];
      if (i <= j) continue;
      std::uint64_t* to = w.masks.data() + w.slot[i] * words;
      for (std::size_t k = 0; k < words; ++k) to[k] |= from[k];
    }
  }
  for (index_t c = 0; c < width; ++c) w.col_patterns[c].clear();
  for (index_t s = 0; s < u; ++s) {
    for (std::size_t k = 0; k < words; ++k) {
      for (std::uint64_t m = w.masks[s * words + k]; m != 0; m &= m - 1) {
        const auto c = static_cast<index_t>(k * 64) + std::countr_zero(m);
        w.col_patterns[c].push_back(w.union_rows[s]);
      }
    }
  }
}

// Solve columns [begin, begin+width) of the blocked solve and append them
// to res.solution.
void process_block(const CscMatrix& l, const CscMatrix& b,
                   std::span<const index_t> order, index_t begin, index_t width,
                   BlockScratch& w, MultiRhsResult& res) {
  WallTimer timer;
  MultiRhsStats& stats = res.stats;
  ++stats.num_blocks;
  const std::span<const index_t> cols = order.subspan(begin, width);

  // --- Symbolic: the union pattern and each column's own pattern. ---
  reach_block_patterns(l, b, cols, w);
  for (index_t c = 0; c < width; ++c) {
    stats.pattern_nnz += static_cast<long long>(w.col_patterns[c].size());
  }
  const auto u = static_cast<index_t>(w.union_rows.size());
  stats.union_rows_total += u;
  stats.padded_zeros += static_cast<long long>(u) * width;
  stats.symbolic_seconds += timer.seconds();

  // --- Numeric: dense |union| × width forward solve. ---
  timer.reset();
  w.buf.assign(static_cast<std::size_t>(u) * width, 0.0);
  for (index_t c = 0; c < width; ++c) {
    const auto rows = b.col_rows(cols[c]);
    const auto vals = b.col_vals(cols[c]);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      w.buf[static_cast<std::size_t>(w.slot[rows[k]]) * width + c] = vals[k];
    }
  }
  panel::rhs_block_solve(l, w.union_rows.data(), u, w.slot.data(),
                         w.buf.data(), width);
  stats.numeric_seconds += timer.seconds();

  // --- Append each column on its own (unpadded) pattern. ---
  CscMatrix& x = res.solution;
  for (index_t c = 0; c < width; ++c) {
    for (index_t i : w.col_patterns[c]) {
      x.row_idx.push_back(i);
      x.values.push_back(
          w.buf[static_cast<std::size_t>(w.slot[i]) * width + c]);
    }
    x.col_ptr[begin + c + 1] = static_cast<index_t>(x.row_idx.size());
  }

  for (index_t i : w.union_rows) w.slot[i] = -1;  // reset scatter map
}

}  // namespace

std::vector<std::vector<index_t>> symbolic_solve_patterns(const CscMatrix& l,
                                                          const CscMatrix& b) {
  PDSLIN_CHECK(l.rows == l.cols && l.rows == b.rows);
  constexpr index_t kBlock = 64;  // one bitmask word per union row
  std::vector<std::vector<index_t>> patterns(b.cols);
  std::vector<index_t> cols(kBlock);
  BlockScratch w(l, kBlock);
  for (index_t begin = 0; begin < b.cols; begin += kBlock) {
    const index_t width = std::min(kBlock, b.cols - begin);
    for (index_t c = 0; c < width; ++c) cols[c] = begin + c;
    reach_block_patterns(l, b, std::span<const index_t>(cols.data(), width), w);
    for (index_t c = 0; c < width; ++c) {
      patterns[begin + c].swap(w.col_patterns[c]);
    }
  }
  return patterns;
}

MultiRhsResult solve_multi_rhs_blocked(const CscMatrix& l, const CscMatrix& b,
                                       std::span<const index_t> order,
                                       index_t block_size) {
  PDSLIN_SPAN("trisolve.multirhs");
  PDSLIN_CHECK(l.rows == l.cols && l.rows == b.rows);
  PDSLIN_CHECK(b.has_values() || b.nnz() == 0);
  PDSLIN_CHECK(block_size >= 1);
  PDSLIN_CHECK(order.size() == static_cast<std::size_t>(b.cols));
  const index_t n = l.rows;
  const index_t m = b.cols;

  MultiRhsResult res;
  res.solution = CscMatrix(n, m);
  if (m == 0) return res;

  BlockScratch w(l, block_size);
  for (index_t begin = 0; begin < m; begin += block_size) {
    process_block(l, b, order, begin, std::min(block_size, m - begin), w, res);
  }
  res.stats.padded_zeros -= res.stats.pattern_nnz;
  static obs::Counter& rhs_blocks = obs::counter("trisolve.rhs_blocks");
  static obs::Counter& padded = obs::counter("trisolve.padded_zeros");
  rhs_blocks.add(res.stats.num_blocks);
  padded.add(res.stats.padded_zeros);
  return res;
}

}  // namespace pdslin
