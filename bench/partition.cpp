// Partition-engine benchmark: the gates of the parallel partitioner
// (src/partition/, docs/PARTITION.md).
//
// This driver is a correctness gate, not just a stopwatch:
//   - the parallel engine (4 threads) must be BITWISE identical to the
//     serial engine for both RHB and NGD (exit 1 otherwise) — the
//     position-derived seeds + deterministic matching contract;
//   - 4-thread speedup over serial must be >= 1.5x. Hardware-gated: it
//     hard-fails only when the host has >= 4 cores, and prints an
//     informational line otherwise;
//   - value-aware partitioning (--partition-values=logabs) must REDUCE the
//     summed GMRES iteration count versus pattern-only at equal k on the
//     adversarial families where magnitude contrast matters (aniso-spd
//     coefficient jumps, arrow borders) under aggressive S̃ dropping — the
//     net-weighting payoff of Vecharynski-Saad-Sosonkina applied to the
//     hybrid solver's interface.
//
// Emits one "BENCH {json}" line per engine configuration.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "check/generators.hpp"
#include "graph/graph.hpp"
#include "partition/engine.hpp"
#include "sparse/convert.hpp"
#include "sparse/symmetrize.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace pdslin;
using namespace pdslin::bench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) {
    std::printf("  OK   %s\n", what);
  } else {
    std::printf("  FAIL %s\n", what);
    ++failures;
  }
}

void emit_engine_report(const char* label, const GeneratedProblem& p,
                        unsigned threads, const partition::Stats& st,
                        double wall_ms) {
  obs::RunReport r;
  r.tool = "bench/partition";
  r.matrix = p.name;
  r.n = p.a.rows;
  r.nnz = p.a.nnz();
  r.set_config("engine", label);
  r.set_config("threads", std::to_string(threads));
  r.set_stat("wall_ms", wall_ms);
  r.set_stat("multilevel_subtrees",
             static_cast<double>(st.multilevel_subtrees));
  r.set_stat("separator_size", static_cast<double>(st.separator_size));
  r.set_stat("balance_ratio", st.balance_ratio);
  emit_bench_report(r);
}

/// Summed GMRES iterations over three seeds of one adversarial family at
/// equal k, under aggressive dropping (where partition quality decides the
/// S̃ preconditioner's strength). Deterministic: fixed seeds, serial solve.
long long family_iterations(check::Family fam, partition::ValueMode vm) {
  long long total = 0;
  for (const std::uint64_t seed : {1ull, 7ull, 13ull}) {
    check::CaseSpec spec;
    spec.family = fam;
    spec.n = 400;
    spec.seed = seed;
    spec.num_subdomains = 8;
    spec.partitioning = PartitionMethod::RHB;
    spec.exact_assembly = false;
    const GeneratedProblem prob = check::build_case(spec);
    SolverOptions opt = check::solver_options_for(spec);
    opt.partition_values = vm;
    opt.assembly.drop_wg = 5e-2;
    opt.assembly.drop_s = 0.3;
    SchurSolver solver(prob.a, opt);
    solver.setup(prob.incidence.rows > 0 ? &prob.incidence : nullptr);
    solver.factor();
    Rng rng(99);
    std::vector<value_t> b(static_cast<std::size_t>(prob.a.rows));
    for (value_t& v : b) v = rng.uniform(-1.0, 1.0);
    std::vector<value_t> x(b.size(), 0.0);
    const GmresResult r = solver.solve(b, x);
    expect(r.converged, "value-weighting gate solve converged");
    total += r.iterations;
  }
  return total;
}

void emit_value_report(check::Family fam, partition::ValueMode vm,
                       long long iterations) {
  obs::RunReport r;
  r.tool = "bench/partition";
  r.matrix = check::to_string(fam);
  r.set_config("engine", "rhb-multilevel");
  r.set_config("partition_values", partition::to_string(vm));
  r.set_config("num_subdomains", "8");
  r.set_stat("gmres_iterations", static_cast<double>(iterations));
  emit_bench_report(r);
}

}  // namespace

int main() {
  print_header("Partition engine: determinism, scaling, value weighting",
               "the partitioning phase of Tables II-III");

  const double scale = bench_scale(1.0);
  const std::uint64_t seed = bench_seed();
  const GeneratedProblem p = make_suite_matrix("tdr190k", scale, seed);
  std::printf("matrix %s: n=%d nnz=%d\n", p.name.c_str(), p.a.rows,
              p.a.nnz());

  RhbOptions ropt;
  ropt.num_parts = 8;
  ropt.seed = seed;

  // --- gate 1: bitwise serial == parallel (RHB) -------------------------
  partition::EngineOptions serial;
  serial.threads = 1;
  partition::EngineOptions par4 = serial;
  par4.threads = 4;

  WallTimer t_serial;
  const partition::EngineResult r1 = partition::rhb_engine(p.incidence, ropt, serial);
  const double serial_ms = t_serial.seconds() * 1e3;
  WallTimer t_par;
  const partition::EngineResult r4 = partition::rhb_engine(p.incidence, ropt, par4);
  const double par_ms = t_par.seconds() * 1e3;
  expect(r1.row_part == r4.row_part && r1.unknowns.part == r4.unknowns.part,
         "rhb_engine: 4-thread partition bitwise identical to serial");
  emit_engine_report("rhb-multilevel", p, 1, r1.stats, serial_ms);
  emit_engine_report("rhb-multilevel", p, 4, r4.stats, par_ms);

  // --- gate 1b: bitwise serial == parallel (NGD) ------------------------
  const CsrMatrix sym = symmetrize_abs(pattern_of(p.a));
  const Graph g = graph_from_matrix(sym);
  NgdOptions nopt;
  nopt.num_parts = 8;
  nopt.seed = seed;
  const partition::EngineResult n1 = partition::ngd_engine(g, nopt, serial);
  const partition::EngineResult n4 = partition::ngd_engine(g, nopt, par4);
  expect(n1.unknowns.part == n4.unknowns.part &&
             n1.unknowns.separator_order == n4.unknowns.separator_order,
         "ngd_engine: 4-thread dissection bitwise identical to serial");

  // --- gate 2: >= 1.5x speedup at 4 threads (hardware-gated) ------------
  const double speedup = par_ms > 0.0 ? serial_ms / par_ms : 1.0;
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("  rhb_engine: serial %.1f ms, 4 threads %.1f ms, speedup %.2fx\n",
              serial_ms, par_ms, speedup);
  if (hw >= 4) {
    expect(speedup >= 1.5, "rhb_engine: >= 1.5x speedup at 4 threads");
  } else {
    std::printf("  SKIP scaling gate: host has %u cores, need >= 4 "
                "(informational: %.2fx)\n", hw, speedup);
  }

  // --- gate 3: value-aware partitioning pays on magnitude-contrast ------
  // families (equal k, aggressive dropping). Pattern-only vs logabs on the
  // SPD coefficient-jump Laplacian and the arrow matrix.
  std::printf("  value-aware partitioning (3 seeds each, k=8, drop_s=0.3):\n");
  for (const check::Family fam :
       {check::Family::AnisoSpd, check::Family::Arrow}) {
    const long long off =
        family_iterations(fam, partition::ValueMode::Off);
    const long long logabs =
        family_iterations(fam, partition::ValueMode::LogAbs);
    emit_value_report(fam, partition::ValueMode::Off, off);
    emit_value_report(fam, partition::ValueMode::LogAbs, logabs);
    std::printf("    %-18s pattern-only %lld iters, logabs %lld iters\n",
                check::to_string(fam), off, logabs);
    expect(logabs < off,
           "value-weighted partition reduces GMRES iterations at equal k");
  }

  if (failures > 0) {
    std::printf("\n%d gate(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nall gates passed\n");
  obs::trace_finalize_env();
  return 0;
}
