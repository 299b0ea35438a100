#include "sparse/csr.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace pdslin {

namespace {

// Shared validation for the two compressed layouts. `ptr` has `major+1`
// entries; `idx` values must lie in [0, minor).
void validate_compressed(index_t major, index_t minor,
                         const std::vector<index_t>& ptr,
                         const std::vector<index_t>& idx,
                         const std::vector<value_t>& values) {
  PDSLIN_CHECK(major >= 0 && minor >= 0);
  PDSLIN_CHECK_MSG(ptr.size() == static_cast<std::size_t>(major) + 1,
                   "pointer array size mismatch");
  PDSLIN_CHECK_MSG(ptr.front() == 0, "pointer array must start at 0");
  // Branch-free scans, so they vectorize: the serve layer checks every
  // request's matrix with them.
  int descending = 0;
  for (index_t i = 0; i < major; ++i) descending |= ptr[i] > ptr[i + 1];
  PDSLIN_CHECK_MSG(descending == 0, "pointer array must be monotone");
  PDSLIN_CHECK_MSG(static_cast<std::size_t>(ptr[major]) == idx.size(),
                   "index array size mismatch");
  PDSLIN_CHECK_MSG(values.empty() || values.size() == idx.size(),
                   "value array size mismatch");
  // A negative index wraps to a large unsigned one.
  const auto limit = static_cast<std::uint32_t>(minor);
  int out_of_range = 0;
  for (index_t v : idx) out_of_range |= static_cast<std::uint32_t>(v) >= limit;
  PDSLIN_CHECK_MSG(out_of_range == 0, "index out of range");
}

bool sorted_compressed(index_t major, const std::vector<index_t>& ptr,
                       const std::vector<index_t>& idx) {
  for (index_t i = 0; i < major; ++i) {
    for (index_t p = ptr[i] + 1; p < ptr[i + 1]; ++p) {
      if (idx[p - 1] >= idx[p]) return false;
    }
  }
  return true;
}

void sort_compressed(index_t major, const std::vector<index_t>& ptr,
                     std::vector<index_t>& idx, std::vector<value_t>& values) {
  std::vector<index_t> order;
  std::vector<index_t> tmp_idx;
  std::vector<value_t> tmp_val;
  for (index_t i = 0; i < major; ++i) {
    const index_t begin = ptr[i];
    const index_t len = ptr[i + 1] - begin;
    if (len <= 1) continue;
    order.resize(len);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
      return idx[begin + a] < idx[begin + b];
    });
    tmp_idx.assign(idx.begin() + begin, idx.begin() + begin + len);
    for (index_t k = 0; k < len; ++k) idx[begin + k] = tmp_idx[order[k]];
    if (!values.empty()) {
      tmp_val.assign(values.begin() + begin, values.begin() + begin + len);
      for (index_t k = 0; k < len; ++k) values[begin + k] = tmp_val[order[k]];
    }
  }
}

}  // namespace

void CsrMatrix::validate() const {
  validate_compressed(rows, cols, row_ptr, col_idx, values);
}

bool CsrMatrix::is_sorted() const { return sorted_compressed(rows, row_ptr, col_idx); }

void CsrMatrix::sort_rows() { sort_compressed(rows, row_ptr, col_idx, values); }

void CscMatrix::validate() const {
  validate_compressed(cols, rows, col_ptr, row_idx, values);
}

bool CscMatrix::is_sorted() const { return sorted_compressed(cols, col_ptr, row_idx); }

void CscMatrix::sort_cols() { sort_compressed(cols, col_ptr, row_idx, values); }

std::uint64_t pattern_hash(const CsrMatrix& m) {
  // Dimensions first so an empty n×m pattern differs from an empty p×q one.
  const auto rows = static_cast<std::uint64_t>(m.rows);
  const auto cols = static_cast<std::uint64_t>(m.cols);
  std::uint64_t h = hash_bytes(&rows, sizeof rows, 0x9e3779b97f4a7c15ULL);
  h = hash_bytes(&cols, sizeof cols, h);
  h = hash_bytes(m.row_ptr.data(), m.row_ptr.size() * sizeof(index_t), h);
  return hash_bytes(m.col_idx.data(), m.col_idx.size() * sizeof(index_t), h);
}

}  // namespace pdslin
