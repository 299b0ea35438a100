// Sparse-RHS reordering walkthrough (paper §IV): take one subdomain, form
// G = L⁻¹Ê with the blocked multi-RHS solver, and show how the natural,
// postorder, and hypergraph column orderings change the padded-zero fraction
// and the solve time across block sizes.
//
//   $ ./rhs_reordering [scale]
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "core/dbbd.hpp"
#include "core/subdomain.hpp"
#include "direct/lu.hpp"
#include "direct/mindeg.hpp"
#include "direct/multirhs.hpp"
#include "gen/suite.hpp"
#include "graph/graph.hpp"
#include "partition/engine.hpp"
#include "reorder/hypergraph_rhs.hpp"
#include "reorder/padding.hpp"
#include "direct/etree.hpp"
#include "reorder/postorder_rhs.hpp"
#include "sparse/convert.hpp"
#include "sparse/permute.hpp"
#include "sparse/symmetrize.hpp"
#include "util/timer.hpp"

using namespace pdslin;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  const GeneratedProblem p = make_suite_matrix("tdr190k", scale);

  // Extract one interior subdomain the way the solver does.
  const CsrMatrix sym = symmetrize_abs(pattern_of(p.a));
  NgdOptions nopt;
  nopt.num_parts = 8;
  const DissectionResult nd =
      partition::ngd_engine(graph_from_matrix(sym), nopt, {}).unknowns;
  const DbbdPartition dbbd = build_dbbd(nd.part, 8);
  const Subdomain sub = extract_subdomain(p.a, dbbd, 0);
  std::printf("subdomain 0: n=%d, interface Ê has %d columns, %d nnz\n\n",
              sub.d.rows, sub.ehat.cols, sub.ehat.nnz());

  // Minimum-degree ordering + postorder variant, factored once each.
  const std::vector<index_t> md =
      minimum_degree_ordering(symmetrize_abs(pattern_of(sub.d)));
  const CsrMatrix d_md = permute_symmetric(sub.d, md);
  const LuFactors lu = lu_factorize(d_md);
  // Ê rows into factor order.
  std::vector<index_t> new_of(md.size());
  for (std::size_t k = 0; k < md.size(); ++k) new_of[md[lu.row_perm[k]]] = k;
  CooMatrix coo(sub.ehat.rows, sub.ehat.cols);
  for (index_t i = 0; i < sub.ehat.rows; ++i) {
    for (index_t q = sub.ehat.row_ptr[i]; q < sub.ehat.row_ptr[i + 1]; ++q) {
      coo.add(new_of[i], sub.ehat.col_idx[q], sub.ehat.values[q]);
    }
  }
  const CscMatrix rhs = coo_to_csc(coo);
  const auto patterns = symbolic_solve_patterns(lu.lower, rhs);

  // §IV-A needs D postordered by its e-tree; factor that variant too.
  const std::vector<index_t> post = etree_postorder_permutation(d_md);
  std::vector<index_t> md_post(md.size());
  for (std::size_t i = 0; i < md.size(); ++i) md_post[i] = md[post[i]];
  const CsrMatrix d_post = permute_symmetric(sub.d, md_post);
  const LuFactors lu_post = lu_factorize(d_post);
  std::vector<index_t> new_of_post(md.size());
  for (std::size_t k = 0; k < md.size(); ++k) {
    new_of_post[md_post[lu_post.row_perm[k]]] = static_cast<index_t>(k);
  }
  CooMatrix coo_post(sub.ehat.rows, sub.ehat.cols);
  for (index_t i = 0; i < sub.ehat.rows; ++i) {
    for (index_t q = sub.ehat.row_ptr[i]; q < sub.ehat.row_ptr[i + 1]; ++q) {
      coo_post.add(new_of_post[i], sub.ehat.col_idx[q], sub.ehat.values[q]);
    }
  }
  const CscMatrix rhs_post = coo_to_csc(coo_post);

  std::vector<index_t> identity(rhs.cols);
  std::iota(identity.begin(), identity.end(), 0);
  std::vector<index_t> row_identity(rhs.rows);
  std::iota(row_identity.begin(), row_identity.end(), 0);
  const std::vector<index_t> post_order =
      sort_columns_by_first_nonzero(rhs_post, row_identity);

  std::printf("%4s | %-25s | %-25s | %-25s\n", "B", "natural  frac / time",
              "postorder-sort", "hypergraph");
  for (const index_t b : {16, 32, 60, 128}) {
    HypergraphRhsOptions hopt;
    hopt.block_size = b;
    hopt.quasi_dense_tau = 0.4;
    const auto hg = hypergraph_rhs_ordering(patterns, lu.n, hopt).col_order;
    auto eval = [&](const std::vector<index_t>& order) {
      WallTimer t;
      const auto res = solve_multi_rhs_blocked(lu.lower, rhs, order, b);
      return std::pair<double, double>{res.stats.padded_fraction(),
                                       t.seconds()};
    };
    auto eval_post = [&](const std::vector<index_t>& order) {
      WallTimer t;
      const auto res = solve_multi_rhs_blocked(lu_post.lower, rhs_post, order, b);
      return std::pair<double, double>{res.stats.padded_fraction(),
                                       t.seconds()};
    };
    const auto [fn, tn] = eval(identity);
    const auto [fp, tp] = eval_post(post_order);
    const auto [fh, th] = eval(hg);
    std::printf("%4d | %7.3f / %8.4fs     | %7.3f / %8.4fs     | %7.3f / %8.4fs\n",
                b, fn, tn, fp, tp, fh, th);
  }
  std::printf("\nfewer padded zeros -> fewer wasted flops in the blocked "
              "supernodal solve;\nthe effect grows with the block size B "
              "(paper Figs. 4 and 5).\n");
  return 0;
}
