// Elimination tree machinery (paper §IV-A).
//
// The e-tree of the (symmetrized) subdomain matrix drives both the
// postorder-based RHS reordering and the fill-path reasoning for sparse
// triangular solutions.
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace pdslin {

/// Liu's elimination-tree algorithm on a structurally symmetric matrix
/// (only the lower/upper pattern is consulted). parent[i] = parent of node i,
/// or -1 for roots. Unsymmetric inputs must be symmetrized first.
std::vector<index_t> elimination_tree(const CsrMatrix& a);

/// Postorder of the forest: returns post with post[k] = the node visited
/// k-th. Children are visited in ascending node order.
std::vector<index_t> tree_postorder(const std::vector<index_t>& parent);

/// True if `parent` encodes a forest over n nodes (no cycles,
/// parents in range and strictly above children is NOT required here —
/// e-tree parents always satisfy parent[i] > i, which is checked).
bool is_valid_etree(const std::vector<index_t>& parent);

}  // namespace pdslin
