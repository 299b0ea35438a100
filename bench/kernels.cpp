// Google-benchmark microbenchmarks of the library's kernels, plus ablations
// of the design choices DESIGN.md §5 calls out (net splitting vs discarding,
// matching strategies, dynamic-weight overhead).
//
// Before the google-benchmark suite runs, main() executes the scalar-vs-
// supernodal LU factorization ablation: both kernels factorize the same
// ordered matrices — two grid FEM meshes and one indefinite Schur
// complement whose off-diagonal pivots all fall in the dense tail — the
// factors are cross-checked (bitwise by contract, plus a matvec probe of
// ‖LU − PA‖, plus the panel kernel having run rather than fallen back),
// and one "BENCH {json}" line per (matrix, kernel) is printed. A failed
// check hard-fails the binary.
//   --lu-kernel=scalar|panel   restrict which kernel's BENCH lines are
//                              emitted (both factors are always built for
//                              the cross-check); default emits both.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/rhb.hpp"
#include "core/schur_assembly.hpp"
#include "core/schur_solver.hpp"
#include "core/structural_factor.hpp"
#include "direct/analysis.hpp"
#include "direct/etree.hpp"
#include "direct/kernels.hpp"
#include "direct/lu.hpp"
#include "direct/mindeg.hpp"
#include "direct/multirhs.hpp"
#include "direct/reach.hpp"
#include "direct/supernodes.hpp"
#include "direct/symbolic.hpp"
#include "gen/grid_fem.hpp"
#include "gen/suite.hpp"
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

/// `a` permuted into the minimum-degree order analyze_pattern gives it.
CsrMatrix md_ordered(const CsrMatrix& a) {
  return permute_symmetric(
      a, analyze_pattern(a, FillOrdering::MinimumDegree).colmap);
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

// range(0) = grid side, range(1) = kernel (0 scalar, 1 lu_factorize, which
// runs the panel kernel).
void BM_LuFactorize(benchmark::State& state) {
  const CscMatrix ordered =
      csr_to_csc(md_ordered(bench_matrix(static_cast<index_t>(state.range(0)))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(state.range(1) == 0
                                 ? scalar_lu_factorize(ordered)
                                 : lu_factorize(ordered));
  }
}
BENCHMARK(BM_LuFactorize)
    ->Args({48, 0})
    ->Args({48, 1})
    ->Args({96, 0})
    ->Args({96, 1});

void BM_MultiRhsSolve(benchmark::State& state) {
  const CsrMatrix a = bench_matrix(64);
  const LuFactors lu =
      lu_factorize(a, analyze_pattern(a, FillOrdering::MinimumDegree));
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

// The dense set-up kernels on one path each (direct/kernel_path.hpp):
// range(0) = 0 for the baseline build, 1 for AVX2 (skipped on a CPU
// without it). GFLOP/s counts a multiply and a subtract per update.
const panel::KernelTable* path_table(benchmark::State& state) {
  const panel::KernelTable* t = panel::kernel_table(
      state.range(0) == 0 ? panel::KernelPath::Baseline
                          : panel::KernelPath::Avx2);
  if (t == nullptr) state.SkipWithError("path not available on this CPU");
  return t;
}

void set_gflops(benchmark::State& state, double flops_per_iteration) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops_per_iteration * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

// C −= L·Y at the shape of the dense LU(S̃) tail of the cold-cavity
// system: ni = ncol = 1,417, w = 32 pivots.
void BM_GemmMinus(benchmark::State& state) {
  const panel::KernelTable* t = path_table(state);
  if (t == nullptr) return;
  constexpr index_t ni = 1417, ncol = 1417, w = 32;
  Rng rng(11);
  std::vector<value_t> l(static_cast<std::size_t>(ni) * w);
  std::vector<value_t> y(static_cast<std::size_t>(w) * ncol);
  std::vector<value_t> c(static_cast<std::size_t>(ni) * ncol);
  for (value_t& v : l) v = rng.uniform(-1e-3, 1e-3);
  for (value_t& v : y) v = rng.uniform(-1e-3, 1e-3);
  for (value_t& v : c) v = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    t->gemm(l.data(), ni, ni, w, y.data(), ncol, c.data(), ni);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gflops(state, 2.0 * ni * ncol * w);
}
BENCHMARK(BM_GemmMinus)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The block update of the blocked multi-RHS solve: one block of 60 sparse
// right-hand sides (6 random rows each) over the reach of their union in
// the factor of a 64 × 64 grid. Each iteration restores the block's input.
void BM_RhsBlockSolve(benchmark::State& state) {
  const panel::KernelTable* t = path_table(state);
  if (t == nullptr) return;
  const CsrMatrix a = bench_matrix(64);
  const LuFactors lu =
      lu_factorize(a, analyze_pattern(a, FillOrdering::MinimumDegree));
  constexpr index_t width = 60;
  Rng rng(7);
  std::vector<index_t> seeds(static_cast<std::size_t>(width) * 6);
  for (index_t& r : seeds) r = rng.index(a.rows);
  ReachSolver reach(lu.lower);
  const auto rr = reach.reach(seeds);
  const std::vector<index_t> rows(rr.begin(), rr.end());
  const auto u = static_cast<index_t>(rows.size());
  std::vector<index_t> slot(a.rows, -1);
  for (index_t s = 0; s < u; ++s) slot[rows[s]] = s;
  std::vector<value_t> x0(static_cast<std::size_t>(u) * width, 0.0);
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    x0[static_cast<std::size_t>(slot[seeds[k]]) * width + k / 6] =
        rng.uniform();
  }
  double flops = 0.0;
  for (const index_t j : rows) {
    flops += (1.0 + 2.0 * (lu.lower.col_nnz(j) - 1)) * width;
  }
  std::vector<value_t> x(x0.size());
  for (auto _ : state) {
    std::copy(x0.begin(), x0.end(), x.begin());
    t->rhs_block(lu.lower, rows.data(), u, slot.data(), x.data(), width);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  set_gflops(state, flops);
}
BENCHMARK(BM_RhsBlockSolve)->Arg(0)->Arg(1);

// T̃ = W̃·G̃ at the shape of a cold-cavity subdomain: W̃ 392 × 1,132 and
// G̃ 1,132 × 392, each 31% dense, through interface_product on one path
// (range(0) = 0 baseline, 1 AVX2) or, for range(0) = 2, the Gustavson
// spgemm it replaces. GFLOP/s counts Gustavson's multiply-adds as two.
void BM_InterfaceProduct(benchmark::State& state) {
  const panel::KernelTable* t = nullptr;
  if (state.range(0) < 2 && (t = path_table(state)) == nullptr) return;
  constexpr index_t mf = 392, nd = 1132, me = 392;
  Rng rng(17);
  const auto random_csc = [&](index_t rows, index_t cols) {
    CscMatrix m(rows, cols);
    for (index_t j = 0; j < cols; ++j) {
      for (index_t i = 0; i < rows; ++i) {
        if (rng.uniform() < 0.31) {
          m.row_idx.push_back(i);
          m.values.push_back(rng.uniform(-1.0, 1.0));
        }
      }
      m.col_ptr[j + 1] = static_cast<index_t>(m.row_idx.size());
    }
    return m;
  };
  const CscMatrix wt = random_csc(nd, mf);
  const CscMatrix g = random_csc(nd, me);
  const CsrMatrix g_csr = csc_to_csr(g);
  CsrMatrix w;
  w.rows = mf;
  w.cols = nd;
  w.row_ptr = wt.col_ptr;
  w.col_idx = wt.row_idx;
  w.values = wt.values;
  double flops = 0.0;
  for (const index_t k : wt.row_idx) flops += 2.0 * g_csr.row_nnz(k);
  for (auto _ : state) {
    CsrMatrix out = t != nullptr ? interface_product(wt, g, t)
                                 : spgemm(w, g_csr);
    benchmark::DoNotOptimize(out.values.data());
  }
  set_gflops(state, flops);
}
BENCHMARK(BM_InterfaceProduct)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// One LU(S̃) apply's dense block at the cold-cavity size, 1,476², on one
// path: unit L below the diagonal, U on and above, every entry nonzero. Each
// iteration restores the right-hand side. GB/s counts the block's bytes.
void BM_DenseBlockApply(benchmark::State& state) {
  const panel::KernelTable* t = path_table(state);
  if (t == nullptr) return;
  constexpr index_t nb = 1476;
  Rng rng(23);
  std::vector<value_t> block(static_cast<std::size_t>(nb) * nb);
  for (index_t j = 0; j < nb; ++j) {
    for (index_t i = 0; i < nb; ++i) {
      block[static_cast<std::size_t>(j) * nb + i] =
          i == j ? 2.0 + rng.uniform() : rng.uniform(-1.0, 1.0) / nb;
    }
  }
  std::vector<value_t> x0(nb), x(nb);
  for (value_t& v : x0) v = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    std::copy(x0.begin(), x0.end(), x.begin());
    t->dense_lu(block.data(), nb, x.data());
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.counters["GB/s"] = benchmark::Counter(
      static_cast<double>(block.size() * sizeof(value_t)) *
          static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DenseBlockApply)->Arg(0)->Arg(1);

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
      KrylovOptions gopt;
      gopt.rel_tolerance = 1e-8;
      benchmark::DoNotOptimize(gmres(op, nullptr, b, x, gopt));
    } else {
      KrylovOptions bopt;
      bopt.rel_tolerance = 1e-8;
      benchmark::DoNotOptimize(bicgstab(op, nullptr, b, x, bopt));
    }
  }
}
BENCHMARK(BM_KrylovMethod)->Arg(0)->Arg(1);

void BM_SupernodeDetection(benchmark::State& state) {
  const CsrMatrix ordered =
      md_ordered(bench_matrix(static_cast<index_t>(state.range(0))));
  for (auto _ : state) {
    const SymbolicFactor sf = symbolic_cholesky(ordered);
    benchmark::DoNotOptimize(
        relaxed_supernodes(sf.parent, sf.col_counts, 0, 0.0));
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
    const std::vector<value_t> lux =
        csc_matvec(f.lower, csc_matvec(transpose(f.upper_t), x));
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
         csc_equal(fa.upper_t, fb.upper_t);
}

/// S̃ of benchmark/'s warm-krylov workload (tdr190k at scale 0.4, its
/// solver options with drop_s 1e-3, system seed 20130520), ordered as
/// SchurPreconditioner orders it. Indefinite: threshold pivoting leaves the
/// diagonal, but only inside the dense tail.
CsrMatrix warm_krylov_schur() {
  const GeneratedProblem p = make_suite_matrix("tdr190k", 0.4, 20130520);
  SolverOptions opt;
  opt.partitioning = PartitionMethod::RHB;
  opt.metric = CutMetric::Soed;
  opt.num_subdomains = 8;
  opt.partition_epsilon = 0.05;
  opt.assembly.drop_wg = 1e-6;
  opt.assembly.drop_s = 1e-3;
  SchurSolver solver(p.a, opt);
  solver.setup(p.incidence.rows > 0 ? &p.incidence : nullptr);
  solver.factor();
  return md_ordered(solver.schur_tilde());
}

/// Returns false (after printing the defect) when the kernels disagree or
/// the panel kernel fell back to the scalar one.
bool run_lu_ablation(const std::string& kernel_filter) {
  constexpr double kResidualTol = 1e-10;
  struct Case {
    std::string name;
    CsrMatrix ordered;
  };
  std::vector<Case> cases;
  for (const index_t side : {64, 128}) {
    cases.push_back({"grid-fem-" + std::to_string(side),
                     md_ordered(bench_matrix(side))});
  }
  cases.push_back({"warm-krylov-schur", warm_krylov_schur()});

  bool ok = true;
  for (const Case& c : cases) {
    const CsrMatrix& ordered = c.ordered;
    const char* name = c.name.c_str();

    const CscMatrix ordered_csc = csr_to_csc(ordered);
    WallTimer ts;
    const LuFactors fs = scalar_lu_factorize(ordered_csc);
    const double scalar_seconds = ts.seconds();
    WallTimer tp;
    const LuFactors fp = lu_factorize(ordered_csc);
    const double panel_seconds = tp.seconds();

    Rng rng(1234 + ordered.rows);
    const double res_scalar = lu_residual_probe(ordered, fs, rng);
    const double res_panel = lu_residual_probe(ordered, fp, rng);
    const bool bitwise = factors_bitwise_equal(fs, fp);
    if (!bitwise) {
      std::printf("LU ABLATION FAIL %s: panel factors differ bitwise "
                  "from scalar (contract violation)\n", name);
      ok = false;
    }
    if (res_scalar > kResidualTol || res_panel > kResidualTol) {
      std::printf("LU ABLATION FAIL %s: ‖LU−PA‖ probe %g (scalar) / %g "
                  "(panel) exceeds %g\n",
                  name, res_scalar, res_panel, kResidualTol);
      ok = false;
    }
    if (!fp.stats.used_panel) {
      std::printf("LU ABLATION FAIL %s: the panel kernel fell back to the "
                  "scalar kernel\n", name);
      ok = false;
    }

    struct Line {
      const char* kernel;
      double seconds;
      double residual;
      const LuFactors* f;
    } lines[] = {{"scalar", scalar_seconds, res_scalar, &fs},
                 {"panel", panel_seconds, res_panel, &fp}};
    for (const Line& ln : lines) {
      if (kernel_filter != "both" && kernel_filter != ln.kernel) continue;
      obs::RunReport rep;
      rep.tool = "bench/kernels";
      rep.matrix = c.name;
      rep.n = ordered.rows;
      rep.nnz = ordered.nnz();
      rep.set_config("ablation", "lu_factorize");
      rep.set_config("lu_kernel", ln.kernel);
      rep.set_phase("factor", ln.seconds);
      rep.set_stat("factor_nnz", static_cast<double>(ln.f->lower.nnz() +
                                                     ln.f->upper_t.nnz()));
      rep.set_stat("lu_residual_probe", ln.residual);
      rep.set_stat("factors_bitwise_equal", bitwise ? 1.0 : 0.0);
      rep.set_stat("speedup_vs_scalar", scalar_seconds / std::max(ln.seconds,
                                                                  1e-12));
      rep.set_stat("panel_count", static_cast<double>(ln.f->stats.panel_count));
      rep.set_stat("panel_avg_width", ln.f->stats.avg_width);
      rep.set_stat("panel_max_width", static_cast<double>(ln.f->stats.max_width));
      rep.set_stat("panel_wide_col_fraction", ln.f->stats.wide_col_fraction);
      rep.set_stat("panel_tail_cols", static_cast<double>(ln.f->stats.tail_cols));
      rep.set_stat("panel_tail_pivots",
                   static_cast<double>(ln.f->stats.tail_pivots));
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
