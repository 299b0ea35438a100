#include "reorder/postorder_rhs.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "sparse/permute.hpp"
#include "util/error.hpp"

namespace pdslin {

std::vector<index_t> sort_columns_by_first_nonzero(
    const CscMatrix& rhs, const std::vector<index_t>& row_perm) {
  PDSLIN_CHECK(row_perm.size() == static_cast<std::size_t>(rhs.rows));
  const std::vector<index_t> inv = invert_permutation(row_perm);

  std::vector<index_t> key(rhs.cols, std::numeric_limits<index_t>::max());
  for (index_t j = 0; j < rhs.cols; ++j) {
    for (index_t row : rhs.col_rows(j)) {
      key[j] = std::min(key[j], inv[row]);
    }
  }
  std::vector<index_t> order(rhs.cols);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](index_t a, index_t b) { return key[a] < key[b]; });
  return order;
}

}  // namespace pdslin
