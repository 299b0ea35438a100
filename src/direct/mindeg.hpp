// Minimum-degree fill-reducing ordering.
//
// PDSLin applies a minimum-degree ordering to every interior subdomain before
// factorization (paper §V-B: "a minimum degree ordering on each subdomain to
// preserve sparsity of its LU factors"). This is a quotient-graph
// implementation with element absorption and indistinguishable-variable
// (supervariable) merging — the same algorithm family as GENMMD/AMD, with
// exact external degrees.
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace pdslin {

/// Compute a fill-reducing permutation of a structurally symmetric matrix.
/// Returns perm with perm[new] = old. Symmetrize unsymmetric matrices first.
/// Variables whose degree reaches max(16, ⌊10·√n⌋) are postponed to the end
/// of the ordering (classic dense-row handling; quasi-dense rows in the
/// circuit matrices would otherwise stall the quotient graph).
std::vector<index_t> minimum_degree_ordering(const CsrMatrix& a);

}  // namespace pdslin
