// Shared setup for the §IV experiments (Figs. 4, 5 and the quasi-dense
// study): extract eight subdomains with the NGD baseline (the paper uses
// PT-Scotch here), order each with minimum degree and with minimum degree
// composed with its e-tree postorder (one analyze_pattern), factor both,
// and prepare the sparse RHS Ê in each factor row order — once per
// subdomain, reused across block sizes and orderings.
#pragma once

#include <memory>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "core/subdomain.hpp"
#include "direct/analysis.hpp"
#include "direct/lu.hpp"
#include "direct/multirhs.hpp"
#include "graph/graph.hpp"
#include "partition/engine.hpp"
#include "reorder/postorder_rhs.hpp"
#include "sparse/convert.hpp"
#include "sparse/symmetrize.hpp"

namespace pdslin::bench {

struct SubdomainRhsSetup {
  // Minimum-degree factorization (used by the natural & hypergraph orderings).
  LuFactors lu_md;
  CscMatrix ehat_md;  // Ê with rows in lu_md factor order
  std::vector<std::vector<index_t>> patterns_md;
  // Postordered variant (§IV-A re-permutes D by the e-tree postorder).
  LuFactors lu_post;
  CscMatrix ehat_post;
  std::vector<std::vector<index_t>> patterns_post;
  std::vector<index_t> post_col_order;  // first-nonzero sort of Ê columns
  index_t num_cols = 0;
  long long nnz_ehat = 0;
};

inline SubdomainRhsSetup prepare_subdomain(const CsrMatrix& a,
                                           const DbbdPartition& dbbd,
                                           index_t l) {
  SubdomainRhsSetup s;
  const Subdomain sub = extract_subdomain(a, dbbd, l);
  s.num_cols = sub.ehat.cols;
  s.nnz_ehat = sub.ehat.nnz();

  PatternAnalysis an = analyze_pattern(sub.d, FillOrdering::MinimumDegree);
  s.lu_md = lu_factorize(sub.d, an);
  s.ehat_md = rhs_in_factor_order(sub.ehat, an.colmap, s.lu_md.row_perm);
  s.patterns_md = symbolic_solve_patterns(s.lu_md.lower, s.ehat_md);

  // Postordered variant: MD ∘ e-tree postorder.
  an = postorder_analysis(std::move(an));
  s.lu_post = lu_factorize(sub.d, an);
  s.ehat_post = rhs_in_factor_order(sub.ehat, an.colmap, s.lu_post.row_perm);
  s.patterns_post = symbolic_solve_patterns(s.lu_post.lower, s.ehat_post);
  {
    std::vector<index_t> identity(s.ehat_post.rows);
    std::iota(identity.begin(), identity.end(), 0);
    s.post_col_order = sort_columns_by_first_nonzero(s.ehat_post, identity);
  }
  return s;
}

/// Eight subdomains of the given problem, NGD-partitioned, fully prepared.
inline std::vector<SubdomainRhsSetup> prepare_problem(const GeneratedProblem& p,
                                                      std::uint64_t seed,
                                                      index_t k = 8) {
  const CsrMatrix sym = symmetrize_abs(pattern_of(p.a));
  const Graph g = graph_from_matrix(sym);
  NgdOptions nopt;
  nopt.num_parts = k;
  nopt.seed = seed;
  const DissectionResult nd = partition::ngd_engine(g, nopt, {}).unknowns;
  // The separator block follows the dissection elimination order — the
  // paper's "natural ordering ... is in fact the nested dissection ordering
  // of the global matrix" (§V-B-a).
  const DbbdPartition dbbd = build_dbbd(nd.part, k, nd.separator_order);
  std::vector<SubdomainRhsSetup> setups;
  setups.reserve(k);
  for (index_t l = 0; l < k; ++l) {
    setups.push_back(prepare_subdomain(p.a, dbbd, l));
  }
  return setups;
}

struct MinAvgMax {
  double min = 0.0, avg = 0.0, max = 0.0;
};

inline MinAvgMax min_avg_max(const std::vector<double>& v) {
  MinAvgMax r;
  if (v.empty()) return r;
  r.min = r.max = v[0];
  for (double x : v) {
    r.min = std::min(r.min, x);
    r.max = std::max(r.max, x);
    r.avg += x;
  }
  r.avg /= static_cast<double>(v.size());
  return r;
}

}  // namespace pdslin::bench
