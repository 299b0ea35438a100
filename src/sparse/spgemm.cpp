#include "sparse/spgemm.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/convert.hpp"
#include "util/error.hpp"

namespace pdslin {

namespace {

// One output row of the numeric product, via a dense accumulator owned by
// the calling worker. mark uses the row index as its stamp: rows are
// processed once each, so stamps never collide across the rows a worker
// handles. Returns the row's nnz; when filling (cols/vals non-null) also
// writes the sorted column segment.
index_t gemm_row(const CsrMatrix& a, const CsrMatrix& b, index_t i,
                 std::vector<value_t>& accum, std::vector<index_t>& mark,
                 std::vector<index_t>& cols_in_row, index_t* cols,
                 value_t* vals) {
  cols_in_row.clear();
  for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
    const index_t k = a.col_idx[p];
    const value_t av = a.values[p];
    for (index_t q = b.row_ptr[k]; q < b.row_ptr[k + 1]; ++q) {
      const index_t j = b.col_idx[q];
      if (mark[j] != i) {
        mark[j] = i;
        accum[j] = 0.0;
        cols_in_row.push_back(j);
      }
      accum[j] += av * b.values[q];
    }
  }
  if (cols != nullptr) {
    std::sort(cols_in_row.begin(), cols_in_row.end());
    for (std::size_t s = 0; s < cols_in_row.size(); ++s) {
      cols[s] = cols_in_row[s];
      vals[s] = accum[cols_in_row[s]];
    }
  }
  return static_cast<index_t>(cols_in_row.size());
}

index_t pattern_row(const CsrMatrix& a, const CsrMatrix& b, index_t i,
                    std::vector<index_t>& mark,
                    std::vector<index_t>& cols_in_row, index_t* cols) {
  cols_in_row.clear();
  for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
    const index_t k = a.col_idx[p];
    for (index_t q = b.row_ptr[k]; q < b.row_ptr[k + 1]; ++q) {
      const index_t j = b.col_idx[q];
      if (mark[j] != i) {
        mark[j] = i;
        cols_in_row.push_back(j);
      }
    }
  }
  if (cols != nullptr) {
    std::sort(cols_in_row.begin(), cols_in_row.end());
    std::copy(cols_in_row.begin(), cols_in_row.end(), cols);
  }
  return static_cast<index_t>(cols_in_row.size());
}

void prefix_sum_rows(CsrMatrix& c, const std::vector<index_t>& row_nnz) {
  for (index_t i = 0; i < c.rows; ++i) {
    c.row_ptr[i + 1] = c.row_ptr[i] + row_nnz[i];
  }
}

// Multiply-add count of the Gustavson product: Σ_i Σ_{k ∈ row i of A}
// nnz(row k of B). One O(nnz(A)) pass, kept out of the inner kernels.
long long gemm_flops(const CsrMatrix& a, const CsrMatrix& b) {
  long long flops = 0;
  for (index_t k : a.col_idx) flops += b.row_nnz(k);
  return flops;
}

}  // namespace

CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b, unsigned threads) {
  PDSLIN_CHECK_MSG(a.cols == b.rows, "spgemm dimension mismatch");
  PDSLIN_CHECK_MSG((a.has_values() || a.nnz() == 0) &&
                       (b.has_values() || b.nnz() == 0),
                   "numeric spgemm requires values; use spgemm_pattern");
  CsrMatrix c(a.rows, b.cols);
  if (a.nnz() == 0 || b.nnz() == 0) return c;  // empty product
  PDSLIN_SPAN("spgemm");
  static obs::Counter& flops = obs::counter("spgemm.flops");
  flops.add(gemm_flops(a, b));

  if (threads <= 1) {
    // Gustavson: sparse accumulator (SPA) per output row.
    std::vector<value_t> accum(b.cols, 0.0);
    std::vector<index_t> mark(b.cols, -1);
    std::vector<index_t> cols_in_row;
    for (index_t i = 0; i < a.rows; ++i) {
      gemm_row(a, b, i, accum, mark, cols_in_row, nullptr, nullptr);
      std::sort(cols_in_row.begin(), cols_in_row.end());
      for (index_t j : cols_in_row) {
        c.col_idx.push_back(j);
        c.values.push_back(accum[j]);
      }
      c.row_ptr[i + 1] = static_cast<index_t>(c.col_idx.size());
    }
    return c;
  }

  // Two-pass row-parallel Gustavson: symbolic nnz per row → prefix-sum
  // row_ptr → numeric fill into the preallocated arrays. Every row is
  // computed exactly as on the serial path (same accumulation order, sorted
  // columns), so the result is bitwise identical.
  ThreadPool& pool = ThreadPool::shared();
  std::vector<index_t> row_nnz(a.rows, 0);
  parallel_ranges(pool, a.rows, threads,
                  [&](unsigned, long long begin, long long end) {
                    std::vector<index_t> mark(b.cols, -1);
                    std::vector<index_t> cols_in_row;
                    for (auto i = static_cast<index_t>(begin); i < end; ++i) {
                      row_nnz[i] = pattern_row(a, b, i, mark, cols_in_row, nullptr);
                    }
                  });
  prefix_sum_rows(c, row_nnz);
  c.col_idx.resize(c.row_ptr[c.rows]);
  c.values.resize(c.row_ptr[c.rows]);
  parallel_ranges(pool, a.rows, threads,
                  [&](unsigned, long long begin, long long end) {
                    std::vector<value_t> accum(b.cols, 0.0);
                    std::vector<index_t> mark(b.cols, -1);
                    std::vector<index_t> cols_in_row;
                    for (auto i = static_cast<index_t>(begin); i < end; ++i) {
                      gemm_row(a, b, i, accum, mark, cols_in_row,
                               c.col_idx.data() + c.row_ptr[i],
                               c.values.data() + c.row_ptr[i]);
                    }
                  });
  return c;
}

CsrMatrix spgemm_pattern(const CsrMatrix& a, const CsrMatrix& b,
                         unsigned threads) {
  PDSLIN_CHECK_MSG(a.cols == b.rows, "spgemm dimension mismatch");
  CsrMatrix c(a.rows, b.cols);
  if (threads <= 1) {
    std::vector<index_t> mark(b.cols, -1);
    std::vector<index_t> cols_in_row;
    for (index_t i = 0; i < a.rows; ++i) {
      pattern_row(a, b, i, mark, cols_in_row, nullptr);
      std::sort(cols_in_row.begin(), cols_in_row.end());
      c.col_idx.insert(c.col_idx.end(), cols_in_row.begin(), cols_in_row.end());
      c.row_ptr[i + 1] = static_cast<index_t>(c.col_idx.size());
    }
    return c;
  }

  ThreadPool& pool = ThreadPool::shared();
  std::vector<index_t> row_nnz(a.rows, 0);
  parallel_ranges(pool, a.rows, threads,
                  [&](unsigned, long long begin, long long end) {
                    std::vector<index_t> mark(b.cols, -1);
                    std::vector<index_t> cols_in_row;
                    for (auto i = static_cast<index_t>(begin); i < end; ++i) {
                      row_nnz[i] = pattern_row(a, b, i, mark, cols_in_row, nullptr);
                    }
                  });
  prefix_sum_rows(c, row_nnz);
  c.col_idx.resize(c.row_ptr[c.rows]);
  parallel_ranges(pool, a.rows, threads,
                  [&](unsigned, long long begin, long long end) {
                    std::vector<index_t> mark(b.cols, -1);
                    std::vector<index_t> cols_in_row;
                    for (auto i = static_cast<index_t>(begin); i < end; ++i) {
                      pattern_row(a, b, i, mark, cols_in_row,
                                  c.col_idx.data() + c.row_ptr[i]);
                    }
                  });
  return c;
}

CsrMatrix ata_pattern(const CsrMatrix& a) {
  const CsrMatrix at = transpose(a);
  return spgemm_pattern(at, a);
}

}  // namespace pdslin
