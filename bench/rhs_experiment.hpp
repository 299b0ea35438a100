// Shared setup for the §IV experiments (Figs. 4, 5 and the quasi-dense
// study): extract eight subdomains with the NGD baseline (the paper uses
// PT-Scotch here), order each with minimum degree, factor it, and prepare
// the sparse RHS Ê in factor row order — once per subdomain, reused across
// block sizes and orderings.
#pragma once

#include <memory>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "core/subdomain.hpp"
#include "direct/lu.hpp"
#include "direct/mindeg.hpp"
#include "direct/multirhs.hpp"
#include "graph/graph.hpp"
#include "partition/engine.hpp"
#include "reorder/postorder_rhs.hpp"
#include "sparse/convert.hpp"
#include "sparse/permute.hpp"
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

inline CscMatrix remap_rhs_rows(const CsrMatrix& ehat,
                                const std::vector<index_t>& colmap,
                                const std::vector<index_t>& lu_row_perm) {
  const index_t nd = static_cast<index_t>(colmap.size());
  std::vector<index_t> new_of(nd);
  for (index_t k = 0; k < nd; ++k) new_of[colmap[lu_row_perm[k]]] = k;
  CooMatrix coo(ehat.rows, ehat.cols);
  for (index_t i = 0; i < ehat.rows; ++i) {
    for (index_t q = ehat.row_ptr[i]; q < ehat.row_ptr[i + 1]; ++q) {
      coo.add(new_of[i], ehat.col_idx[q], ehat.values[q]);
    }
  }
  return coo_to_csc(coo);
}

inline SubdomainRhsSetup prepare_subdomain(const CsrMatrix& a,
                                           const DbbdPartition& dbbd,
                                           index_t l) {
  SubdomainRhsSetup s;
  const Subdomain sub = extract_subdomain(a, dbbd, l);
  s.num_cols = sub.ehat.cols;
  s.nnz_ehat = sub.ehat.nnz();

  const CsrMatrix dsym = symmetrize_abs(pattern_of(sub.d));
  const std::vector<index_t> md = minimum_degree_ordering(dsym);
  const CsrMatrix d_md = permute_symmetric(sub.d, md);
  s.lu_md = lu_factorize(d_md);
  s.ehat_md = remap_rhs_rows(sub.ehat, md, s.lu_md.row_perm);
  s.patterns_md = symbolic_solve_patterns(s.lu_md.lower, s.ehat_md);

  // Postordered variant: MD ∘ e-tree postorder.
  const std::vector<index_t> post = etree_postorder_permutation(d_md);
  std::vector<index_t> composed(md.size());
  for (std::size_t i = 0; i < md.size(); ++i) composed[i] = md[post[i]];
  const CsrMatrix d_post = permute_symmetric(sub.d, composed);
  s.lu_post = lu_factorize(d_post);
  s.ehat_post = remap_rhs_rows(sub.ehat, composed, s.lu_post.row_perm);
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
