// RHS reordering based on the elimination-tree postorder (paper §IV-A).
//
// The subdomain matrix D is permuted so its e-tree is postordered
// (FillOrdering::MinimumDegreePostorder, direct/analysis.hpp); the RHS rows
// are permuted conformingly; RHS columns are then sorted by the row index
// of their first nonzero. Consecutive columns then start at nearby e-tree
// nodes, so their fill paths overlap and the blocked solver pads fewer
// zeros.
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace pdslin {

/// Sort columns by first-nonzero row index under a given row permutation
/// (perm[new] = old). Stable: ties keep original column order.
std::vector<index_t> sort_columns_by_first_nonzero(
    const CscMatrix& rhs, const std::vector<index_t>& row_perm);

}  // namespace pdslin
