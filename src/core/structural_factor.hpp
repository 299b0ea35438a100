// Structural factorization str(A) = str(MᵀM) (paper Eq. (11), after [7]).
//
// The RHB pipeline partitions the column-net hypergraph of M, not of A.
// FEM generators hand us their element-node incidence (exact). For general
// symmetric patterns we build a greedy edge-clique cover: each row of M is a
// clique of the adjacency graph of A, so MᵀM reproduces A's pattern (plus
// the always-present diagonal).
#pragma once

#include "sparse/csr.hpp"

namespace pdslin {

/// Build M (pattern-only CSR, rows = cliques, cols = unknowns) such that
/// str(MᵀM) ⊇ str(A) with equality when A's pattern has a zero-free
/// diagonal. `a` must be structurally symmetric. Cliques grow to at most 8
/// vertices (bigger cliques → fewer M rows → smaller hypergraphs, but
/// quadratic verification cost per clique).
CsrMatrix clique_cover_factor(const CsrMatrix& a);

/// Verify str(MᵀM) ⊇ str(A) (and report whether it is exact). Test helper.
struct FactorCheck {
  bool covers = false;
  bool exact = false;
};
FactorCheck check_structural_factor(const CsrMatrix& a, const CsrMatrix& m);

}  // namespace pdslin
