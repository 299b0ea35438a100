// Subdomain-level scaling study: wall-clock of factor()'s subdomain phase at
// outer threads 1, 4 and k — one worker per subdomain, the paper's §V
// configuration; the work inside a subdomain is serial — with a hard
// bitwise gate: S̃ and the solution x of one right-hand side must be
// identical at every layout.
//
// Also runs the LU setup-kernel ablation: scalar vs supernodal panel
// factorization on Table I families (matrix211, ASIC_680ks), recorded as
// BENCH lines with the panel statistics; the factors must agree bitwise.
//
// The driver hard-fails when either gate does. Emits one JSON line (prefix
// "JSON ") for the bench trajectory. Speedups reflect the host: on a
// single-core container every layout degrades to serial execution and
// reports ~1× (the kernel ablation's speedup is algorithmic, not
// thread-parallel).
//
// Environment: PDSLIN_BENCH_SCALE, PDSLIN_BENCH_SEED (see bench_common.hpp),
// PDSLIN_BENCH_MATRIX (suite name, default tdr190k).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "direct/analysis.hpp"
#include "direct/lu.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/convert.hpp"
#include "sparse/permute.hpp"
#include "sparse/symmetrize.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace pdslin;

namespace {

bool same_matrix(const CsrMatrix& a, const CsrMatrix& b) {
  return a.rows == b.rows && a.cols == b.cols && a.row_ptr == b.row_ptr &&
         a.col_idx == b.col_idx && a.values == b.values;
}

bool same_bits(const std::vector<value_t>& a, const std::vector<value_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)) == 0;
}

bool same_factors(const LuFactors& a, const LuFactors& b) {
  auto csc_equal = [](const CscMatrix& x, const CscMatrix& y) {
    return x.col_ptr == y.col_ptr && x.row_idx == y.row_idx &&
           x.values == y.values;
  };
  return a.row_perm == b.row_perm && csc_equal(a.lower, b.lower) &&
         csc_equal(a.upper_t, b.upper_t);
}

/// Setup-kernel ablation: scalar vs supernodal panel factorization on
/// Table I families. Emits one BENCH line per (family, kernel) with the
/// panel statistics; returns false when the factors disagree bitwise.
bool run_lu_kernel_ablation(std::uint64_t seed) {
  const double scale = bench::bench_scale(0.3);
  const char* families[] = {"matrix211", "ASIC_680ks"};
  bool ok = true;
  std::printf("\n%-12s | %-10s | %-12s | %s\n", "family", "kernel",
              "factor t[s]", "speedup vs scalar");
  for (const char* fam : families) {
    const GeneratedProblem p = make_suite_matrix(fam, scale, seed);
    const CscMatrix ordered_csc = csr_to_csc(permute_symmetric(
        p.a, analyze_pattern(p.a, FillOrdering::MinimumDegree).colmap));

    double seconds[2] = {0.0, 0.0};
    LuFactors factors[2];
    for (int ki = 0; ki < 2; ++ki) {
      double best = 1e30;
      for (int rep = 0; rep < 2; ++rep) {
        WallTimer t;
        factors[ki] = ki == 0 ? scalar_lu_factorize(ordered_csc)
                              : lu_factorize(ordered_csc);
        best = std::min(best, t.seconds());
      }
      seconds[ki] = best;
    }
    const bool bitwise = same_factors(factors[0], factors[1]);
    ok = ok && bitwise;
    for (int ki = 0; ki < 2; ++ki) {
      const char* kname = ki == 0 ? "scalar" : "panel";
      std::printf("%-12s | %-10s | %12.4f | %16.2fx%s\n", fam, kname,
                  seconds[ki], seconds[0] / seconds[ki],
                  !bitwise && ki == 1 ? "  FACTORS DIFFER — BUG" : "");
      obs::RunReport rep;
      rep.tool = "bench/scaling";
      rep.matrix = p.name;
      rep.n = p.a.rows;
      rep.nnz = p.a.nnz();
      rep.set_config("ablation", "lu_setup_kernel");
      rep.set_config("lu_kernel", kname);
      rep.set_phase("factor", seconds[ki]);
      rep.set_stat("setup_speedup_vs_scalar", seconds[0] / seconds[ki]);
      rep.set_stat("factors_bitwise_equal", bitwise ? 1.0 : 0.0);
      const LuPanelStats& st = factors[ki].stats;
      rep.set_stat("panel_count", static_cast<double>(st.panel_count));
      rep.set_stat("panel_avg_width", st.avg_width);
      rep.set_stat("panel_max_width", static_cast<double>(st.max_width));
      rep.set_stat("panel_wide_col_fraction", st.wide_col_fraction);
      rep.set_stat("panel_gemm_fraction",
                   st.total_flops > 0
                       ? static_cast<double>(st.gemm_flops) /
                             static_cast<double>(st.total_flops)
                       : 0.0);
      bench::emit_bench_report(rep);
    }
  }
  return ok;
}

}  // namespace

int main() {
  bench::print_header(
      "SCALING — subdomain-level parallelism",
      "the §V one-worker-per-subdomain configuration");
  const double scale = bench::bench_scale(1.0);
  const std::uint64_t seed = bench::bench_seed();
  std::string name = "tdr190k";
  if (const char* m = std::getenv("PDSLIN_BENCH_MATRIX")) name = m;
  const index_t k = 8;

  const GeneratedProblem p = make_suite_matrix(name, scale, seed);
  std::printf("matrix %s: n=%d nnz=%d, %d subdomains, pool=%u threads\n",
              p.name.c_str(), p.a.rows, p.a.nnz(), k,
              ThreadPool::shared().size());
  std::vector<value_t> b(static_cast<std::size_t>(p.a.rows));
  Rng rng(seed);
  for (value_t& v : b) v = rng.uniform(-1.0, 1.0);

  // --- factor() and one solve at each outer thread count. ---
  std::printf("\n%-8s | %-18s | %s\n", "threads", "subdomain wall[s]",
              "speedup vs serial");
  std::vector<std::pair<unsigned, double>> layouts;
  CsrMatrix s_ref;
  std::vector<value_t> x_ref;
  bool identical = true;
  for (const unsigned threads : {1u, 4u, static_cast<unsigned>(k)}) {
    SolverOptions opt = bench::bench_solver_options();
    opt.num_subdomains = k;
    opt.threads = threads;
    SchurSolver solver(p.a, opt);
    solver.setup(p.incidence.rows > 0 ? &p.incidence : nullptr);
    solver.factor();
    std::vector<value_t> x(b.size(), 0.0);
    solver.solve(b, x);
    const double wall = solver.stats().subdomain_wall_seconds;
    bool same = true;
    if (layouts.empty()) {
      s_ref = solver.schur_tilde();
      x_ref = x;
    } else {
      same = same_matrix(s_ref, solver.schur_tilde()) && same_bits(x_ref, x);
      identical = identical && same;
    }
    layouts.emplace_back(threads, wall);
    std::printf("%-8u | %18.4f | %17.2fx  (cpu=%.4fs modeled-max=%.4fs)%s\n",
                threads, wall, layouts.front().second / wall,
                solver.stats().subdomain_seconds_cpu(),
                solver.stats().subdomain_seconds_modeled(),
                same ? "" : "  S~ OR x DIFFERS — BUG");
    obs::RunReport rep =
        bench::make_bench_report("bench/scaling", p, opt, solver.stats());
    rep.set_config("layout", "t" + std::to_string(threads));
    bench::emit_bench_report(rep);
  }
  std::printf("bitwise-identical S~ and x across thread counts: %s\n",
              identical ? "yes" : "NO — BUG");

  // --- LU setup kernel ablation over Table I families. ---
  const bool lu_identical = run_lu_kernel_ablation(seed);
  identical = identical && lu_identical;

  std::printf("\nJSON {\"bench\":\"scaling\",\"matrix\":\"%s\",\"n\":%d,"
              "\"pool_threads\":%u,\"factor_wall_seconds\":{",
              p.name.c_str(), p.a.rows, ThreadPool::shared().size());
  for (std::size_t li = 0; li < layouts.size(); ++li) {
    std::printf("%s\"t%u\":%.6f", li ? "," : "", layouts[li].first,
                layouts[li].second);
  }
  std::printf("},\"identical\":%s}\n", identical ? "true" : "false");
  return identical ? 0 : 1;
}
