#include "direct/analysis.hpp"

#include <numeric>
#include <utility>

#include "direct/etree.hpp"
#include "direct/mindeg.hpp"
#include "sparse/convert.hpp"
#include "sparse/permute.hpp"
#include "sparse/symmetrize.hpp"

namespace pdslin {

PatternAnalysis analyze_pattern(const CsrMatrix& a, FillOrdering ordering) {
  // |A| + |Aᵀ| as a pattern: values would only be summed and dropped.
  CsrMatrix sym =
      a.has_values() ? symmetrize_abs(pattern_of(a)) : symmetrize_abs(a);
  PatternAnalysis an;
  if (ordering == FillOrdering::Given) {
    an.colmap.resize(static_cast<std::size_t>(a.rows));
    std::iota(an.colmap.begin(), an.colmap.end(), 0);
    an.pattern = std::move(sym);
  } else {
    an.colmap = minimum_degree_ordering(sym);
    an.pattern = permute_symmetric(sym, an.colmap);
  }
  an.symbolic = symbolic_cholesky(an.pattern);
  if (ordering == FillOrdering::MinimumDegreePostorder) {
    return postorder_analysis(std::move(an));
  }
  return an;
}

PatternAnalysis postorder_analysis(PatternAnalysis an) {
  const std::vector<index_t> post = tree_postorder(an.symbolic.parent);
  const std::vector<index_t> new_of = invert_permutation(post);
  const auto n = static_cast<index_t>(post.size());
  PatternAnalysis out;
  out.colmap.resize(post.size());
  out.symbolic.parent.resize(post.size());
  out.symbolic.col_counts.resize(post.size());
  for (index_t k = 0; k < n; ++k) {
    const index_t old = post[k];
    const index_t p = an.symbolic.parent[old];
    out.colmap[k] = an.colmap[old];
    out.symbolic.parent[k] = p < 0 ? -1 : new_of[p];
    out.symbolic.col_counts[k] = an.symbolic.col_counts[old];
  }
  out.symbolic.factor_nnz = an.symbolic.factor_nnz;
  out.pattern = permute_symmetric(an.pattern, post);
  return out;
}

}  // namespace pdslin
