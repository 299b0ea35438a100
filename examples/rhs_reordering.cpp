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
#include "direct/analysis.hpp"
#include "direct/lu.hpp"
#include "direct/multirhs.hpp"
#include "gen/suite.hpp"
#include "graph/graph.hpp"
#include "partition/engine.hpp"
#include "reorder/hypergraph_rhs.hpp"
#include "reorder/padding.hpp"
#include "reorder/postorder_rhs.hpp"
#include "sparse/convert.hpp"
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

  // Minimum-degree ordering + postorder variant, factored once each, with
  // Ê's rows in each factor order.
  PatternAnalysis an = analyze_pattern(sub.d, FillOrdering::MinimumDegree);
  const LuFactors lu = lu_factorize(sub.d, an);
  const CscMatrix rhs = rhs_in_factor_order(sub.ehat, an.colmap, lu.row_perm);
  const auto patterns = symbolic_solve_patterns(lu.lower, rhs);

  // §IV-A needs D postordered by its e-tree; factor that variant too.
  an = postorder_analysis(std::move(an));
  const LuFactors lu_post = lu_factorize(sub.d, an);
  const CscMatrix rhs_post =
      rhs_in_factor_order(sub.ehat, an.colmap, lu_post.row_perm);

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
