// pdslin — command-line front end for the hybrid solver.
//
// Usage:
//   pdslin --matrix tdr190k [--scale 1.0]          (suite analogue)
//   pdslin --matrix path/to/A.mtx                  (Matrix Market file)
// Options:
//   --method RHB|NGD          partitioner                    [RHB]
//   --metric con1|cnet|soed   RHB cut metric                 [soed]
//   --constraints 1|2         single (w1) / multi (w1,w2)    [1]
//   --static-weights          disable RHB dynamic weights
//   -k N                      number of subdomains (power of 2) [8]
//   --epsilon X               partition balance tolerance     [0.05]
//   --partition-engine E      multilevel|geometric            [multilevel]
//   --partition-budget-ms X   partition latency budget (0 = unlimited;
//                             exhausted budget degrades remaining subtrees
//                             to the geometric/streaming fallback)    [0]
//   --partition-min-quality Q fraction of top bisection levels immune to
//                             budget degradation               [0]
//   --partition-values M      off|abs|logabs — weight hyperedges/graph
//                             edges by bucketed |a_ij| magnitudes  [off]
//   --rhs-ordering natural|postorder|hypergraph               [postorder]
//   --block-size B            multi-RHS block size            [60]
//   --drop-wg X / --drop-s X  dropping thresholds             [1e-6 / 1e-5]
//   --lu-kernel scalar|panel  LU factorization kernel         [panel]
//   --lu-panel-width W        panel width cap (0 = unlimited) [32]
//   --lu-panel-relax X        relaxed-amalgamation padding    [0.25]
//   --krylov gmres|bicgstab   Schur iterative method          [gmres]
//   --nrhs N                  right-hand sides solved as one batch      [1]
//                             (one operator/preconditioner/workspace set
//                             shared across the columns)
//   --threads N               outer threads: concurrent subdomain tasks [1]
//   --inner-threads M         inner workers per subdomain task          [1]
//                             (two-level budget np = N × M, mirroring the
//                             paper's k subdomain groups of np/k processors;
//                             M parallelizes the multi-RHS solves, the T̃
//                             SpGEMM and the drop sweeps — results are
//                             bitwise independent of N and M)
//   --seed N                  RNG seed                        [1]
//   --verbose                 info-level logging
// Observability (docs/OBSERVABILITY.md):
//   --trace-out FILE          record spans, write Chrome trace JSON to FILE
//                             (load in chrome://tracing or ui.perfetto.dev)
//   --report-out FILE         write the machine-readable RunReport JSON
//   PDSLIN_TRACE=1|FILE       env equivalent of --trace-out (FILE names the
//                             output; "1" records without writing)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "core/schur_solver.hpp"
#include "gen/suite.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sparse/io.hpp"
#include "sparse/ops.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace pdslin;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "pdslin: %s\n(see the header of tools/pdslin_cli.cpp "
                       "for usage)\n", msg);
  std::exit(2);
}

bool is_suite_name(const std::string& name) {
  for (const std::string& s : suite_names()) {
    if (s == name) return true;
  }
  return false;
}

int run(int argc, char** argv) {
  obs::label_this_thread("main");
  std::string matrix;
  std::string trace_out;
  std::string report_out;
  double scale = 1.0;
  index_t nrhs = 1;
  SolverOptions opt;
  opt.partitioning = PartitionMethod::RHB;
  opt.metric = CutMetric::Soed;
  opt.num_subdomains = 8;
  opt.partition_epsilon = 0.05;
  opt.assembly.drop_wg = 1e-6;
  opt.assembly.drop_s = 1e-5;
  opt.assembly.rhs_ordering = RhsOrdering::Postorder;
  std::string krylov = "gmres";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--matrix") {
      matrix = next();
    } else if (arg == "--scale") {
      scale = std::atof(next());
    } else if (arg == "--method") {
      const std::string v = next();
      if (v == "RHB") {
        opt.partitioning = PartitionMethod::RHB;
      } else if (v == "NGD") {
        opt.partitioning = PartitionMethod::NGD;
      } else {
        usage("unknown --method");
      }
    } else if (arg == "--metric") {
      const std::string v = next();
      if (v == "con1") opt.metric = CutMetric::Con1;
      else if (v == "cnet") opt.metric = CutMetric::CutNet;
      else if (v == "soed") opt.metric = CutMetric::Soed;
      else usage("unknown --metric");
    } else if (arg == "--constraints") {
      opt.constraints = std::atoi(next()) >= 2 ? RhbConstraintMode::MultiW1W2
                                               : RhbConstraintMode::SingleW1;
    } else if (arg == "--static-weights") {
      opt.rhb_dynamic_weights = false;
    } else if (arg == "-k") {
      opt.num_subdomains = static_cast<index_t>(std::atoi(next()));
    } else if (arg == "--epsilon") {
      opt.partition_epsilon = std::atof(next());
    } else if (arg == "--partition-engine") {
      const std::string v = next();
      if (!partition::engine_from_string(v, opt.partition_engine)) {
        usage("unknown --partition-engine (multilevel|geometric)");
      }
    } else if (arg == "--partition-budget-ms") {
      opt.partition_budget_ms = std::atof(next());
    } else if (arg == "--partition-min-quality") {
      opt.partition_min_quality = std::atof(next());
    } else if (arg == "--partition-values") {
      const std::string v = next();
      if (!partition::value_mode_from_string(v, opt.partition_values)) {
        usage("unknown --partition-values (off|abs|logabs)");
      }
    } else if (arg == "--rhs-ordering") {
      const std::string v = next();
      if (v == "natural") opt.assembly.rhs_ordering = RhsOrdering::Natural;
      else if (v == "postorder") opt.assembly.rhs_ordering = RhsOrdering::Postorder;
      else if (v == "hypergraph") opt.assembly.rhs_ordering = RhsOrdering::Hypergraph;
      else usage("unknown --rhs-ordering");
    } else if (arg == "--block-size") {
      opt.assembly.rhs_block_size = static_cast<index_t>(std::atoi(next()));
    } else if (arg == "--drop-wg") {
      opt.assembly.drop_wg = std::atof(next());
    } else if (arg == "--drop-s") {
      opt.assembly.drop_s = std::atof(next());
    } else if (arg == "--lu-kernel") {
      const std::string k = next();
      if (k == "scalar") opt.assembly.lu.kernel = LuKernel::Scalar;
      else if (k == "panel") opt.assembly.lu.kernel = LuKernel::Panel;
      else usage("unknown --lu-kernel (scalar|panel)");
    } else if (arg == "--lu-panel-width") {
      opt.assembly.lu.panel_max_width =
          static_cast<index_t>(std::atoi(next()));
    } else if (arg == "--lu-panel-relax") {
      opt.assembly.lu.panel_relax = std::atof(next());
    } else if (arg == "--krylov") {
      krylov = next();
      if (krylov != "gmres" && krylov != "bicgstab") usage("unknown --krylov");
    } else if (arg == "--nrhs") {
      nrhs = static_cast<index_t>(std::atoi(next()));
      if (nrhs < 1) usage("--nrhs must be >= 1");
    } else if (arg == "--threads") {
      opt.threads = static_cast<unsigned>(std::atoi(next()));
    } else if (arg == "--inner-threads") {
      opt.assembly.inner_threads = static_cast<unsigned>(std::atoi(next()));
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--verbose") {
      set_log_level(LogLevel::Info);
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--report-out") {
      report_out = next();
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (matrix.empty()) usage("--matrix is required");
  opt.krylov = krylov == "bicgstab" ? KrylovMethod::Bicgstab : KrylovMethod::Gmres;

  obs::trace_init_from_env();
  if (!trace_out.empty()) obs::trace_enable();

  GeneratedProblem problem;
  if (is_suite_name(matrix)) {
    PDSLIN_SPAN("cli.generate");
    problem = make_suite_matrix(matrix, scale, opt.seed);
  } else {
    PDSLIN_SPAN("cli.read_matrix");
    problem.a = read_matrix_market_file(matrix);
    problem.name = matrix;
  }
  std::printf("matrix %s: n=%d nnz=%d\n", problem.name.c_str(), problem.a.rows,
              problem.a.nnz());
  const long long matrix_n = problem.a.rows;
  const long long matrix_nnz = problem.a.nnz();

  SchurSolver solver(std::move(problem.a), opt);
  const CsrMatrix& a = solver.matrix();
  solver.setup(problem.incidence.rows > 0 ? &problem.incidence : nullptr,
               problem.coords);
  solver.factor();

  Rng rng(opt.seed + 777);
  const auto n = static_cast<std::size_t>(a.rows);
  std::vector<value_t> b(n * static_cast<std::size_t>(nrhs));
  std::vector<value_t> x(b.size(), 0.0);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const std::vector<GmresResult> results = solver.solve_multi(b, x, nrhs);
  int converged_cols = 0;
  for (const GmresResult& r : results) converged_cols += r.converged ? 1 : 0;
  const bool all_converged = converged_cols == nrhs;

  const SolverStats& st = solver.stats();
  const DbbdStats& ps = st.partition;
  std::printf("\n%s\n", st.summary().c_str());
  std::printf("partition engine: %s (%lld multilevel / %lld fallback "
              "subtrees%s, balance=%.3f)\n",
              st.partition_engine.c_str(), st.partition_multilevel_subtrees,
              st.partition_fallback_subtrees,
              st.partition_budget_exhausted ? ", budget exhausted" : "",
              st.partition_balance_ratio);
  std::printf("balance (max/min over %d subdomains): dim(D)=%s nnz(D)=%s "
              "col(E)=%s nnz(E)=%s\n",
              opt.num_subdomains,
              format_ratio(max_over_min(std::span<const long long>(ps.dim_d))).c_str(),
              format_ratio(max_over_min(std::span<const long long>(ps.nnz_d))).c_str(),
              format_ratio(max_over_min(std::span<const long long>(ps.nnzcol_e))).c_str(),
              format_ratio(max_over_min(std::span<const long long>(ps.nnz_e))).c_str());
  double worst_residual = 0.0;
  for (index_t j = 0; j < nrhs; ++j) {
    const std::span<const value_t> bj(b.data() + j * n, n);
    const std::span<const value_t> xj(x.data() + j * n, n);
    worst_residual =
        std::max(worst_residual, residual_norm(a, xj, bj) / norm2(bj));
  }
  std::printf("true residual ||Ax-b||/||b|| = %.3e%s\n", worst_residual,
              nrhs > 1 ? " (worst column)" : "");
  std::printf("solve phase: %d/%d columns converged, %lld applies, "
              "%.3f iters/s, %.3f ms/apply, wall=%.3fs cpu=%.3fs, "
              "workspace allocs=%lld\n",
              converged_cols, nrhs, st.solve_applies,
              st.iterations_per_second(), st.seconds_per_apply() * 1e3,
              st.solve_seconds, st.solve_cpu_seconds,
              st.solve_workspace_allocs);
  std::printf("modeled one-level parallel time: %.3f s\n",
              st.parallel_time_one_level());

  if (!report_out.empty()) {
    obs::RunReport report;
    report.tool = "pdslin_cli";
    report.matrix = problem.name;
    report.n = matrix_n;
    report.nnz = matrix_nnz;
    report.add_solver(opt, st);
    report.set_stat("true_relative_residual", worst_residual);
    report.capture_metrics();
    if (!report_write_file(report, report_out)) return 1;
    std::printf("report written to %s\n", report_out.c_str());
  }
  if (!trace_out.empty()) {
    if (!obs::trace_write_file(trace_out)) return 1;
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  obs::trace_finalize_env();
  return all_converged ? 0 : 1;
}

}  // namespace

// An error that reaches here (an unreadable input, a bad option value, an
// unknown matrix) ends the run with a one-line reason and the usage-error
// status instead of an abort.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdslin: %s\n", e.what());
    return 2;
  }
}
