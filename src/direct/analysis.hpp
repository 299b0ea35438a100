// The pattern-only analysis before an LU factorization: the analyze step of
// an analyze-once, factor-many split.
//
// PDSLin orders every interior subdomain by minimum degree before its LU
// (paper §V-B) and, for the §IV-A RHS ordering, postorders the e-tree of the
// ordered pattern. analyze_pattern forms |A| + |Aᵀ| once, orders it, and
// computes the e-tree and column counts of the ordered pattern once
// (symbolic_cholesky). The postorder is composed by relabeling that e-tree
// and those counts: a postorder numbers every child before its parent, so
// it is an equivalent reordering whose e-tree and column counts are the
// relabeled ones (Liu, 1990). lu_factorize(a, analysis, opt) hands the
// ordered pattern and its SymbolicFactor to the panel kernel's symbolic
// phase.
#pragma once

#include <vector>

#include "direct/symbolic.hpp"
#include "sparse/csr.hpp"

namespace pdslin {

/// The symmetric ordering analyze_pattern applies.
enum class FillOrdering {
  Given,          // A's own order: colmap is the identity
  MinimumDegree,  // minimum_degree_ordering of |A| + |Aᵀ|
  /// Minimum degree, then the postorder of that ordering's e-tree (§IV-A).
  MinimumDegreePostorder,
};

struct PatternAnalysis {
  /// The ordering: colmap[new] = old.
  std::vector<index_t> colmap;
  /// |A| + |Aᵀ| permuted symmetrically by colmap: pattern only, rows sorted.
  CsrMatrix pattern;
  /// The e-tree and column counts of `pattern`.
  SymbolicFactor symbolic;
};

/// Analyze square `a` (its values are not read) under `ordering`.
PatternAnalysis analyze_pattern(const CsrMatrix& a, FillOrdering ordering);

/// `an` with the postorder of its e-tree composed into colmap: the pattern
/// permuted by it, the e-tree and column counts relabeled.
PatternAnalysis postorder_analysis(PatternAnalysis an);

}  // namespace pdslin
