// Symbolic factorization for structurally symmetric patterns: Cholesky-style
// column counts and factor pattern via elimination-tree row subtrees.
//
// The symbolic phase of the panel LU kernel (direct/panel_lu.cpp) runs it
// once per factorization on the symmetrized pattern: the column counts pick
// the panels and the dense tail, and the pattern of L bounds the fill.
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace pdslin {

struct SymbolicFactor {
  std::vector<index_t> parent;      // elimination tree
  std::vector<index_t> col_counts;  // nnz of each column of L (incl. diagonal)
  long long factor_nnz = 0;         // Σ col_counts
};

/// Symbolic Cholesky of a structurally symmetric matrix (pattern only).
SymbolicFactor symbolic_cholesky(const CsrMatrix& a);

/// Full pattern of L (lower triangular, diagonal first, rows ascending),
/// row-subtree algorithm, given a's symbolic_cholesky `s`.
CscMatrix cholesky_pattern(const CsrMatrix& a, const SymbolicFactor& s);

}  // namespace pdslin
