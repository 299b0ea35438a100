// Reproduces Figure 5: sparse triangular solution time (forming
// G_ℓ = L_ℓ⁻¹ Ê_ℓ) vs block size B for the three RHS orderings, min/avg/max
// over the eight subdomains.
//
// Expected shape: a time minimum near B ≈ 60 (the PDSLin default); the
// hypergraph ordering gains more as B grows, up to ~1.3× over natural.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "rhs_experiment.hpp"
#include "reorder/hypergraph_rhs.hpp"
#include "util/timer.hpp"

using namespace pdslin;

namespace {

double timed_solve(const CscMatrix& l, const CscMatrix& rhs,
                   const std::vector<index_t>& order, index_t b) {
  // Repeat-min timing: these solves run in milliseconds at laptop scale, so
  // a single shot is noise-dominated.
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer t;
    solve_multi_rhs_blocked(l, rhs, order, b);
    best = std::min(best, t.seconds());
  }
  return best;
}

}  // namespace

int main() {
  bench::print_header("FIGURE 5 — triangular solution time vs block size B",
                      "Fig. 5 (a)-(d)");
  const double scale = bench::bench_scale(1.0);
  const std::uint64_t seed = bench::bench_seed();
  const std::vector<index_t> block_sizes{1, 4, 16, 60, 128, 256};

  for (const char* name : {"tdr190k", "dds.quad", "dds.linear", "matrix211"}) {
    const GeneratedProblem p = make_suite_matrix(name, scale, seed);
    std::printf("\n%s (n=%d): preparing 8 subdomains...\n", name, p.a.rows);
    const auto setups = bench::prepare_problem(p, seed);

    obs::RunReport rep;
    rep.tool = "bench/fig5_triangular_time";
    rep.matrix = p.name;
    rep.n = p.a.rows;
    rep.nnz = p.a.nnz();
    std::printf("%4s | %-26s | %-26s | %-26s\n", "B",
                "natural t[s] (min/avg/max)", "postorder", "hypergraph");
    for (const index_t b : block_sizes) {
      std::vector<double> nat, post, hg;
      for (const auto& s : setups) {
        if (s.num_cols == 0) continue;
        std::vector<index_t> identity(s.num_cols);
        std::iota(identity.begin(), identity.end(), 0);
        nat.push_back(timed_solve(s.lu_md.lower, s.ehat_md, identity, b));
        post.push_back(
            timed_solve(s.lu_post.lower, s.ehat_post, s.post_col_order, b));
        HypergraphRhsOptions hopt;
        hopt.block_size = b;
        hopt.seed = seed;
        hopt.quasi_dense_tau = 0.4;
        const auto order =
            hypergraph_rhs_ordering(s.patterns_md, s.lu_md.n, hopt).col_order;
        hg.push_back(timed_solve(s.lu_md.lower, s.ehat_md, order, b));
      }
      const auto n = bench::min_avg_max(nat);
      const auto po = bench::min_avg_max(post);
      const auto h = bench::min_avg_max(hg);
      std::printf(
          "%4d | %7.4f %7.4f %7.4f  | %7.4f %7.4f %7.4f  | %7.4f %7.4f %7.4f\n",
          b, n.min, n.avg, n.max, po.min, po.avg, po.max, h.min, h.avg, h.max);
      const std::string suffix = "_b" + std::to_string(b);
      rep.set_stat("trisolve_seconds_natural" + suffix, n.avg);
      rep.set_stat("trisolve_seconds_postorder" + suffix, po.avg);
      rep.set_stat("trisolve_seconds_hypergraph" + suffix, h.avg);
    }
    bench::emit_bench_report(rep);
    // Summary speedup at the largest B (where ordering matters most).
    std::printf("  (speedup hypergraph vs natural grows with B; paper: up to 1.3x)\n");
  }
  return 0;
}
