// Google-benchmark microbenchmarks of the library's kernels, plus ablations
// of the design choices DESIGN.md §5 calls out (net splitting vs discarding,
// matching strategies, dynamic-weight overhead).
//
// Before the google-benchmark suite runs, main() executes the scalar-vs-
// supernodal LU factorization ablation: both kernels factorize the same
// ordered matrices, the factors are cross-checked (bitwise by contract,
// plus a matvec probe of ‖LU − PA‖), and one "BENCH {json}" line per
// (matrix, kernel) is printed. A factor mismatch hard-fails the binary.
//   --lu-kernel=scalar|panel   restrict which kernel's BENCH lines are
//                              emitted (both factors are always built for
//                              the cross-check); default emits both.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/rhb.hpp"
#include "core/structural_factor.hpp"
#include "direct/etree.hpp"
#include "direct/lu.hpp"
#include "direct/mindeg.hpp"
#include "direct/multirhs.hpp"
#include "direct/supernodes.hpp"
#include "gen/grid_fem.hpp"
#include "iterative/bicgstab.hpp"
#include "iterative/gmres.hpp"
#include "graph/bisect.hpp"
#include "graph/graph.hpp"
#include "hypergraph/bisect.hpp"
#include "hypergraph/coarsen.hpp"
#include "obs/report.hpp"
#include "partition/engine.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "sparse/permute.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/symmetrize.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace pdslin;

CsrMatrix bench_matrix(index_t side) {
  GridFemOptions opt;
  opt.nx = opt.ny = side;
  return generate_grid_fem(opt).a;
}

void BM_Transpose(benchmark::State& state) {
  const CsrMatrix a = bench_matrix(static_cast<index_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(transpose(a));
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Transpose)->Arg(64)->Arg(128);

void BM_Symmetrize(benchmark::State& state) {
  const CsrMatrix a = bench_matrix(static_cast<index_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(symmetrize_abs(a));
  }
}
BENCHMARK(BM_Symmetrize)->Arg(64)->Arg(128);

void BM_Spgemm(benchmark::State& state) {
  const CsrMatrix a = bench_matrix(static_cast<index_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(spgemm(a, a));
  }
}
BENCHMARK(BM_Spgemm)->Arg(48)->Arg(96);

void BM_Etree(benchmark::State& state) {
  const CsrMatrix a = bench_matrix(static_cast<index_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(elimination_tree(a));
  }
}
BENCHMARK(BM_Etree)->Arg(128);

void BM_MinimumDegree(benchmark::State& state) {
  const CsrMatrix a = bench_matrix(static_cast<index_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimum_degree_ordering(a));
  }
}
BENCHMARK(BM_MinimumDegree)->Arg(48)->Arg(96);

// range(0) = grid side, range(1) = kernel (0 scalar, 1 panel), range(2) =
// panel threads.
void BM_LuFactorize(benchmark::State& state) {
  const CsrMatrix a = bench_matrix(static_cast<index_t>(state.range(0)));
  const auto perm = minimum_degree_ordering(symmetrize_abs(pattern_of(a)));
  const CsrMatrix ordered = permute_symmetric(a, perm);
  LuOptions opt;
  opt.kernel = state.range(1) == 0 ? LuKernel::Scalar : LuKernel::Panel;
  opt.threads = static_cast<unsigned>(state.range(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu_factorize(ordered, opt));
  }
}
BENCHMARK(BM_LuFactorize)
    ->Args({48, 0, 1})
    ->Args({48, 1, 1})
    ->Args({96, 0, 1})
    ->Args({96, 1, 1})
    ->Args({96, 1, 4});

void BM_MultiRhsSolve(benchmark::State& state) {
  const CsrMatrix a = bench_matrix(64);
  const auto perm = minimum_degree_ordering(symmetrize_abs(pattern_of(a)));
  const LuFactors lu = lu_factorize(permute_symmetric(a, perm));
  Rng rng(7);
  CooMatrix coo(a.rows, 240);
  for (index_t j = 0; j < 240; ++j) {
    for (int e = 0; e < 6; ++e) coo.add(rng.index(a.rows), j, rng.uniform());
  }
  const CscMatrix rhs = coo_to_csc(coo);
  std::vector<index_t> order(240);
  std::iota(order.begin(), order.end(), 0);
  const auto block = static_cast<index_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_multi_rhs_blocked(lu.lower, rhs, order, block));
  }
}
BENCHMARK(BM_MultiRhsSolve)->Arg(1)->Arg(16)->Arg(60)->Arg(240);

void BM_GraphBisect(benchmark::State& state) {
  const Graph g = graph_from_matrix(
      symmetrize_abs(bench_matrix(static_cast<index_t>(state.range(0)))));
  GraphBisectOptions opt;
  for (auto _ : state) {
    opt.seed++;
    benchmark::DoNotOptimize(bisect_graph(g, opt));
  }
}
BENCHMARK(BM_GraphBisect)->Arg(64)->Arg(128);

void BM_HypergraphBisect(benchmark::State& state) {
  const Hypergraph h = column_net_model(
      bench_matrix(static_cast<index_t>(state.range(0))));
  HgBisectOptions opt;
  for (auto _ : state) {
    opt.seed++;
    benchmark::DoNotOptimize(bisect_hypergraph(h, opt));
  }
}
BENCHMARK(BM_HypergraphBisect)->Arg(64)->Arg(128);

void BM_HypergraphCoarsen(benchmark::State& state) {
  const Hypergraph h = column_net_model(bench_matrix(128));
  for (auto _ : state) {
    const auto match = heavy_connectivity_matching_det(h, 1);
    benchmark::DoNotOptimize(contract(h, match));
  }
}
BENCHMARK(BM_HypergraphCoarsen);

// Ablation: static-weight recursive partitioning under the three
// net-inheritance policies.
void BM_RecursiveMetric(benchmark::State& state) {
  const CsrMatrix m = bench_matrix(96);
  RhbOptions opt;
  opt.num_parts = 8;
  opt.metric = static_cast<CutMetric>(state.range(0));
  opt.dynamic_weights = false;
  opt.epsilon = 0.05;
  opt.attempts = 1;
  for (auto _ : state) {
    opt.seed++;
    benchmark::DoNotOptimize(partition::rhb_engine(m, opt, {}));
  }
}
BENCHMARK(BM_RecursiveMetric)
    ->Arg(static_cast<int>(CutMetric::Con1))
    ->Arg(static_cast<int>(CutMetric::CutNet))
    ->Arg(static_cast<int>(CutMetric::Soed));

// Ablation: dynamic vs static weights in RHB (overhead of recomputation).
void BM_RhbWeights(benchmark::State& state) {
  GridFemOptions gopt;
  gopt.nx = gopt.ny = 96;
  const GeneratedProblem p = generate_grid_fem(gopt);
  RhbOptions opt;
  opt.num_parts = 8;
  opt.dynamic_weights = state.range(0) != 0;
  for (auto _ : state) {
    opt.seed++;
    benchmark::DoNotOptimize(partition::rhb_engine(p.incidence, opt, {}));
  }
}
BENCHMARK(BM_RhbWeights)->Arg(0)->Arg(1);

// Ablation: GMRES vs BiCGSTAB on the same preconditioned system.
void BM_KrylovMethod(benchmark::State& state) {
  const CsrMatrix a = bench_matrix(48);
  const MatrixOperator op(a);
  Rng rng(11);
  std::vector<value_t> b(a.rows);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    std::vector<value_t> x(a.rows, 0.0);
    if (state.range(0) == 0) {
      GmresOptions gopt;
      gopt.rel_tolerance = 1e-8;
      benchmark::DoNotOptimize(gmres(op, nullptr, b, x, gopt));
    } else {
      BicgstabOptions bopt;
      bopt.rel_tolerance = 1e-8;
      benchmark::DoNotOptimize(bicgstab(op, nullptr, b, x, bopt));
    }
  }
}
BENCHMARK(BM_KrylovMethod)->Arg(0)->Arg(1);

void BM_SupernodeDetection(benchmark::State& state) {
  const CsrMatrix a = bench_matrix(static_cast<index_t>(state.range(0)));
  const auto perm = minimum_degree_ordering(symmetrize_abs(pattern_of(a)));
  const CsrMatrix ordered = permute_symmetric(a, perm);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fundamental_supernodes(ordered));
  }
}
BENCHMARK(BM_SupernodeDetection)->Arg(64)->Arg(128);

// Ablation: serial vs parallel RHB recursion (identical results by design;
// on a single-core host the parallel path only measures spawn overhead).
void BM_RhbThreads(benchmark::State& state) {
  GridFemOptions gopt;
  gopt.nx = gopt.ny = 64;
  const GeneratedProblem p = generate_grid_fem(gopt);
  RhbOptions opt;
  opt.num_parts = 8;
  opt.attempts = 1;
  partition::EngineOptions eng;
  eng.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::rhb_engine(p.incidence, opt, eng));
  }
}
BENCHMARK(BM_RhbThreads)->Arg(1)->Arg(4);

void BM_CliqueCover(benchmark::State& state) {
  const CsrMatrix a = bench_matrix(static_cast<index_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(clique_cover_factor(a));
  }
}
BENCHMARK(BM_CliqueCover)->Arg(64)->Arg(128);

// ---------------------------------------------------------------------------
// Scalar vs supernodal LU ablation (ISSUE 6): correctness gate + BENCH lines.

/// y = M·x for a CSC factor (values required).
std::vector<value_t> csc_matvec(const CscMatrix& m,
                                const std::vector<value_t>& x) {
  std::vector<value_t> y(m.rows, 0.0);
  for (index_t j = 0; j < m.cols; ++j) {
    const value_t xj = x[j];
    if (xj == 0.0) continue;
    for (index_t p = m.col_ptr[j]; p < m.col_ptr[j + 1]; ++p) {
      y[m.row_idx[p]] += m.values[p] * xj;
    }
  }
  return y;
}

/// Matvec probe of ‖L·U − P·A‖: max over random x of ‖L·U·x − P·(A·x)‖_∞,
/// scaled by ‖A‖_max·‖x‖_∞·n. Avoids the dense oracle so it runs at bench
/// sizes.
double lu_residual_probe(const CsrMatrix& a, const LuFactors& f, Rng& rng) {
  double amax = 0.0;
  for (const value_t v : a.values) amax = std::max(amax, std::abs(v));
  if (amax == 0.0) amax = 1.0;
  double worst = 0.0;
  std::vector<value_t> x(a.cols), ax(a.rows);
  for (int probe = 0; probe < 5; ++probe) {
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    spmv(a, x, ax);
    const std::vector<value_t> lux = csc_matvec(f.lower, csc_matvec(f.upper, x));
    double diff = 0.0;
    for (index_t i = 0; i < a.rows; ++i) {
      diff = std::max(diff, std::abs(lux[i] - ax[f.row_perm[i]]));
    }
    worst = std::max(worst, diff / (amax * static_cast<double>(a.rows)));
  }
  return worst;
}

bool factors_bitwise_equal(const LuFactors& fa, const LuFactors& fb) {
  auto csc_equal = [](const CscMatrix& x, const CscMatrix& y) {
    return x.col_ptr == y.col_ptr && x.row_idx == y.row_idx &&
           x.values.size() == y.values.size() &&
           (x.values.empty() ||
            std::memcmp(x.values.data(), y.values.data(),
                        x.values.size() * sizeof(value_t)) == 0);
  };
  return fa.row_perm == fb.row_perm && csc_equal(fa.lower, fb.lower) &&
         csc_equal(fa.upper, fb.upper);
}

/// Returns false (after printing the defect) when the kernels disagree.
bool run_lu_ablation(const std::string& kernel_filter) {
  constexpr double kResidualTol = 1e-10;
  const index_t sides[] = {64, 128};
  bool ok = true;
  for (const index_t side : sides) {
    const CsrMatrix a = bench_matrix(side);
    const auto perm = minimum_degree_ordering(symmetrize_abs(pattern_of(a)));
    const CsrMatrix ordered = permute_symmetric(a, perm);

    LuOptions sopt;
    sopt.kernel = LuKernel::Scalar;
    LuOptions popt;
    popt.kernel = LuKernel::Panel;
    popt.threads = 4;

    WallTimer ts;
    const LuFactors fs = lu_factorize(ordered, sopt);
    const double scalar_seconds = ts.seconds();
    WallTimer tp;
    const LuFactors fp = lu_factorize(ordered, popt);
    const double panel_seconds = tp.seconds();

    Rng rng(1234 + side);
    const double res_scalar = lu_residual_probe(ordered, fs, rng);
    const double res_panel = lu_residual_probe(ordered, fp, rng);
    const bool bitwise = factors_bitwise_equal(fs, fp);
    if (!bitwise) {
      std::printf("LU ABLATION FAIL grid%d: panel factors differ bitwise "
                  "from scalar (contract violation)\n", side);
      ok = false;
    }
    if (res_scalar > kResidualTol || res_panel > kResidualTol) {
      std::printf("LU ABLATION FAIL grid%d: ‖LU−PA‖ probe %g (scalar) / %g "
                  "(panel) exceeds %g\n",
                  side, res_scalar, res_panel, kResidualTol);
      ok = false;
    }

    struct Line {
      const char* kernel;
      double seconds;
      double residual;
      const LuFactors* f;
      unsigned threads;
    } lines[] = {{"scalar", scalar_seconds, res_scalar, &fs, 1u},
                 {"panel", panel_seconds, res_panel, &fp, popt.threads}};
    for (const Line& ln : lines) {
      if (kernel_filter != "both" && kernel_filter != ln.kernel) continue;
      obs::RunReport rep;
      rep.tool = "bench/kernels";
      rep.matrix = "grid-fem-" + std::to_string(side);
      rep.n = ordered.rows;
      rep.nnz = ordered.nnz();
      rep.set_config("ablation", "lu_factorize");
      rep.set_config("lu_kernel", ln.kernel);
      rep.set_config("threads", std::to_string(ln.threads));
      rep.set_phase("factor", ln.seconds);
      rep.set_stat("factor_nnz", static_cast<double>(ln.f->lower.nnz() +
                                                     ln.f->upper.nnz()));
      rep.set_stat("lu_residual_probe", ln.residual);
      rep.set_stat("factors_bitwise_equal", bitwise ? 1.0 : 0.0);
      rep.set_stat("speedup_vs_scalar", scalar_seconds / std::max(ln.seconds,
                                                                  1e-12));
      rep.set_stat("panel_count", static_cast<double>(ln.f->stats.panel_count));
      rep.set_stat("panel_avg_width", ln.f->stats.avg_width);
      rep.set_stat("panel_max_width", static_cast<double>(ln.f->stats.max_width));
      rep.set_stat("panel_wide_col_fraction", ln.f->stats.wide_col_fraction);
      rep.set_stat("panel_gemm_fraction",
                   ln.f->stats.total_flops > 0
                       ? static_cast<double>(ln.f->stats.gemm_flops) /
                             static_cast<double>(ln.f->stats.total_flops)
                       : 0.0);
      std::printf("BENCH %s\n", rep.to_json_line().c_str());
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our ablation flag; everything else goes to google-benchmark.
  std::string kernel_filter = "both";
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--lu-kernel=", 12) == 0) {
      kernel_filter = argv[i] + 12;
      if (kernel_filter != "scalar" && kernel_filter != "panel") {
        std::fprintf(stderr, "kernels: --lu-kernel must be scalar|panel\n");
        return 2;
      }
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!run_lu_ablation(kernel_filter)) return 1;

  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 2;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
