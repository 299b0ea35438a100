// Reproduces Figure 1: PDSLin runtime breakdown (LU(D), Comp(S), LU(S),
// Solve) as a function of total core count {8, 32, 128, 512, 1024} with
// k = 8 subdomains, RHB(soed) vs NGD, on the tdr455k analogue.
//
// Two-level substitution (DESIGN.md §3): per-subdomain serial work is
// MEASURED on this host; the intra-subdomain SuperLU_DIST scaling is MODELED
// (Amdahl + per-doubling efficiency). Inter-subdomain imbalance — the
// paper's subject — therefore feeds through exactly as measured.
//
// Expected shape: RHB reduces Comp(S) at every core count without
// significantly increasing LU(D); total time decreases monotonically.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "parallel/cost_model.hpp"

using namespace pdslin;

int main() {
  bench::print_header("FIGURE 1 — two-level runtime breakdown (tdr455k, k=8)",
                      "Fig. 1");
  const GeneratedProblem p =
      make_suite_matrix("tdr455k", bench::bench_scale(1.0), bench::bench_seed());
  std::printf("matrix: %s n=%d nnz=%d\n", p.name.c_str(), p.a.rows, p.a.nnz());

  const index_t k = 8;
  struct Measured {
    const char* label;
    SolverStats stats;
  };
  std::vector<Measured> runs;
  for (const PartitionMethod method :
       {PartitionMethod::RHB, PartitionMethod::NGD}) {
    SolverOptions opt = bench::bench_solver_options();
    opt.partitioning = method;
    opt.metric = CutMetric::Soed;
    opt.num_subdomains = k;
    const bench::PipelineResult r = bench::run_pipeline(p, opt);
    runs.push_back({method == PartitionMethod::RHB ? "RHB,soed" : "PT-Scotch(NGD)",
                    r.stats});
    std::printf("measured (1 core/domain): %s  %s\n", runs.back().label,
                r.stats.summary().c_str());
    bench::emit_bench_report("bench/fig1_two_level", p, opt, r.stats);
  }

  std::printf("\n%8s  %-15s %9s %9s %9s %9s %9s\n", "cores", "algorithm",
              "LU(D)", "Comp(S)", "LU(S)", "Solve", "total");
  for (const int cores : {8, 32, 128, 512, 1024}) {
    const int per_domain = std::max(1, cores / k);
    for (const Measured& m : runs) {
      const double lu_d =
          two_level_phase_time(m.stats.lu_d_seconds, per_domain);
      const double comp_s =
          two_level_phase_time(m.stats.comp_s_seconds, per_domain) +
          global_phase_time(m.stats.gather_seconds, cores);
      const double lu_s = global_phase_time(m.stats.lu_s_seconds, cores);
      const double solve = global_phase_time(m.stats.solve_seconds, cores);
      std::printf("%8d  %-15s %9.3f %9.3f %9.3f %9.3f %9.3f\n", cores, m.label,
                  lu_d, comp_s, lu_s, solve, lu_d + comp_s + lu_s + solve);
    }
  }
  std::printf(
      "\nexpected shape: RHB's LU(D) and Comp(S) bars below NGD's at every "
      "core count\n(the paper's mechanism: better inter-subdomain balance); "
      "totals shrink\nmonotonically with cores. Note the LU(S) share: at "
      "laptop scale the separator\nis ~10%% of n (vs ~0.2%% at paper scale), "
      "so LU(S~) — which RHB does not\ntarget — dominates the stack; see "
      "EXPERIMENTS.md.\n");
  return 0;
}
