// Tests for the parallel, budget-aware partitioning engine (src/partition/):
// thread-count determinism, budget degradation validity, the geometric
// fallback, the deterministic coarsening matching, and the serve-layer
// fingerprint contract for the new knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "check/invariants.hpp"
#include "core/dbbd.hpp"
#include "core/schur_solver.hpp"
#include "gen/grid_fem.hpp"
#include "gen/cavity.hpp"
#include "graph/graph.hpp"
#include "graph/nested_dissection.hpp"
#include "hypergraph/coarsen.hpp"
#include "hypergraph/hypergraph.hpp"
#include "partition/budget.hpp"
#include "partition/engine.hpp"
#include "partition/geometric.hpp"
#include "serve/fingerprint.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/symmetrize.hpp"

namespace pdslin {
namespace {

GeneratedProblem small_fem() {
  GridFemOptions opt;
  opt.nx = 12;
  opt.ny = 12;
  opt.nz = 2;
  opt.seed = 5;
  return generate_grid_fem(opt);
}

TEST(PartitionEngine, RhbBitwiseIdenticalAcrossThreadCounts) {
  const GeneratedProblem p = small_fem();
  RhbOptions opt;
  opt.num_parts = 8;
  opt.seed = 42;

  partition::EngineResult base;
  for (const unsigned threads : {1u, 2u, 4u}) {
    partition::EngineOptions eng;
    eng.threads = threads;
    partition::EngineResult r = partition::rhb_engine(p.incidence, opt, eng);
    if (threads == 1) {
      base = std::move(r);
      EXPECT_GT(base.stats.multilevel_subtrees, 0);
      EXPECT_EQ(base.stats.fallback_subtrees, 0);
      EXPECT_STREQ(base.stats.engine_label(), "multilevel");
      continue;
    }
    EXPECT_EQ(r.row_part, base.row_part) << "threads=" << threads;
    EXPECT_EQ(r.unknowns.part, base.unknowns.part) << "threads=" << threads;
    EXPECT_EQ(r.unknowns.separator_size, base.unknowns.separator_size);
  }
}

TEST(PartitionEngine, RhbNonPowerOfTwoBitwiseAcrossThreadCounts) {
  // Any k splits as ⌊k/2⌋ + ⌈k/2⌉; the uneven split must stay
  // position-seeded, so labels cover [0, k) and match at every thread count.
  const GeneratedProblem p = small_fem();
  for (const index_t k : {3, 6}) {
    RhbOptions opt;
    opt.num_parts = k;
    opt.dynamic_weights = false;
    opt.seed = 17;
    partition::EngineOptions eng;
    const partition::EngineResult serial =
        partition::rhb_engine(p.incidence, opt, eng);
    std::vector<long long> rows_in(static_cast<std::size_t>(k), 0);
    for (index_t label : serial.row_part) {
      ASSERT_GE(label, 0) << "k=" << k;
      ASSERT_LT(label, k) << "k=" << k;
      ++rows_in[static_cast<std::size_t>(label)];
    }
    for (long long rows : rows_in) EXPECT_GT(rows, 0) << "k=" << k;

    eng.threads = 4;
    const partition::EngineResult parallel =
        partition::rhb_engine(p.incidence, opt, eng);
    EXPECT_EQ(parallel.row_part, serial.row_part) << "k=" << k;
    EXPECT_EQ(parallel.unknowns.part, serial.unknowns.part) << "k=" << k;
  }
}

TEST(PartitionEngine, NgdBitwiseIdenticalAcrossThreadCounts) {
  const GeneratedProblem p = small_fem();
  const CsrMatrix sym = symmetrize_abs(pattern_of(p.a));
  const Graph g = graph_from_matrix(sym);
  NgdOptions opt;
  opt.num_parts = 8;
  opt.seed = 7;

  partition::EngineResult base;
  for (const unsigned threads : {1u, 2u, 4u}) {
    partition::EngineOptions eng;
    eng.threads = threads;
    partition::EngineResult r = partition::ngd_engine(g, opt, eng);
    EXPECT_TRUE(is_valid_dissection(g, r.unknowns)) << "threads=" << threads;
    if (threads == 1) {
      base = std::move(r);
      continue;
    }
    EXPECT_EQ(r.unknowns.part, base.unknowns.part) << "threads=" << threads;
    EXPECT_EQ(r.unknowns.separator_order, base.unknowns.separator_order)
        << "threads=" << threads;
  }
}

TEST(PartitionEngine, ExhaustedBudgetDegradesButStaysValid) {
  const GeneratedProblem p = small_fem();
  RhbOptions opt;
  opt.num_parts = 8;
  opt.seed = 3;
  partition::EngineOptions eng;
  eng.budget.max_ms = -1.0;  // exhausted on entry: every subtree degrades
  eng.coords = p.coords;
  const partition::EngineResult r = partition::rhb_engine(p.incidence, opt, eng);
  EXPECT_TRUE(r.stats.budget_exhausted);
  EXPECT_EQ(r.stats.multilevel_subtrees, 0);
  EXPECT_GT(r.stats.fallback_subtrees, 0);
  EXPECT_STREQ(r.stats.engine_label(), "geometric");

  const DbbdPartition dbbd = build_dbbd(r.unknowns.part, opt.num_parts);
  check::CheckReport rep;
  check::check_partition(p.a, dbbd, rep);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(PartitionEngine, MinQualityProtectsTopLevels) {
  const GeneratedProblem p = small_fem();
  RhbOptions opt;
  opt.num_parts = 8;
  opt.seed = 3;
  partition::EngineOptions eng;
  eng.budget.max_ms = -1.0;
  eng.budget.min_quality = 1.0;  // protect all levels: budget cannot degrade
  eng.coords = p.coords;
  const partition::EngineResult r = partition::rhb_engine(p.incidence, opt, eng);
  EXPECT_TRUE(r.stats.budget_exhausted);
  EXPECT_EQ(r.stats.fallback_subtrees, 0);
  EXPECT_GT(r.stats.multilevel_subtrees, 0);
}

TEST(PartitionEngine, GeometricEngineUsesCoordsAndStaysValid) {
  // dds (tet FEM) exercises the coordinate path end-to-end through the
  // generator: coords are emitted per node and consumed by the RCB fallback.
  const GeneratedProblem p = generate_dds_linear(0.02, 11);
  ASSERT_FALSE(p.coords.empty());
  ASSERT_EQ(p.coords.size(), static_cast<std::size_t>(p.a.rows) * 3);

  RhbOptions opt;
  opt.num_parts = 4;
  opt.seed = 1;
  partition::EngineOptions eng;
  eng.engine = partition::Engine::Geometric;
  eng.coords = p.coords;
  const partition::EngineResult r = partition::rhb_engine(p.incidence, opt, eng);
  EXPECT_EQ(r.stats.multilevel_subtrees, 0);
  EXPECT_GT(r.stats.fallback_subtrees, 0);

  // Every part must be populated (RCB forces >= 1 item per part) and the
  // induced partition must be a valid DBBD input.
  std::vector<int> seen(static_cast<std::size_t>(opt.num_parts), 0);
  for (index_t label : r.row_part) {
    ASSERT_GE(label, 0);
    ASSERT_LT(label, opt.num_parts);
    seen[static_cast<std::size_t>(label)] = 1;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<long>(opt.num_parts));
  const DbbdPartition dbbd = build_dbbd(r.unknowns.part, opt.num_parts);
  check::CheckReport rep;
  check::check_partition(p.a, dbbd, rep);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(PartitionEngine, NgdGeometricFallbackStaysValidDissection) {
  const GeneratedProblem p = small_fem();
  const CsrMatrix sym = symmetrize_abs(pattern_of(p.a));
  const Graph g = graph_from_matrix(sym);
  NgdOptions opt;
  opt.num_parts = 8;
  opt.seed = 9;
  partition::EngineOptions eng;
  eng.engine = partition::Engine::Geometric;
  eng.coords = p.coords;
  const partition::EngineResult r = partition::ngd_engine(g, opt, eng);
  EXPECT_EQ(r.stats.multilevel_subtrees, 0);
  EXPECT_GT(r.stats.fallback_subtrees, 0);
  EXPECT_TRUE(is_valid_dissection(g, r.unknowns));
  // The elimination order covers exactly the separator vertices.
  EXPECT_EQ(static_cast<index_t>(r.unknowns.separator_order.size()),
            r.unknowns.separator_size);
}

TEST(PartitionEngine, StreamingFallbackWithoutCoordsStaysValid) {
  const GeneratedProblem p = small_fem();
  RhbOptions opt;
  opt.num_parts = 8;
  opt.seed = 3;
  partition::EngineOptions eng;
  eng.engine = partition::Engine::Geometric;  // no coords: streaming split
  const partition::EngineResult r = partition::rhb_engine(p.incidence, opt, eng);
  EXPECT_GT(r.stats.fallback_subtrees, 0);
  const DbbdPartition dbbd = build_dbbd(r.unknowns.part, opt.num_parts);
  check::CheckReport rep;
  check::check_partition(p.a, dbbd, rep);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(PartitionEngine, SolverSetupRecordsEngineStats) {
  const GeneratedProblem p = small_fem();
  SolverOptions opt;
  opt.num_subdomains = 4;
  opt.partition_budget_ms = -1.0;  // force full degradation
  SchurSolver solver(p.a, opt);
  solver.setup(&p.incidence, p.coords);
  EXPECT_EQ(solver.stats().partition_engine, "geometric");
  EXPECT_GT(solver.stats().partition_fallback_subtrees, 0);
  EXPECT_TRUE(solver.stats().partition_budget_exhausted);
  check::CheckReport rep;
  check::check_partition(solver.matrix(), solver.partition(), rep);
  EXPECT_TRUE(rep.ok()) << rep.summary();

  // The degraded partition must still carry a working solve.
  solver.factor();
  std::vector<value_t> b(static_cast<std::size_t>(p.a.rows), 1.0);
  std::vector<value_t> x(b.size(), 0.0);
  const GmresResult res = solver.solve(b, x);
  EXPECT_TRUE(res.converged);
}

TEST(PartitionEngine, BudgetTrackerSentinels) {
  partition::Budget unlimited;  // max_ms == 0
  partition::BudgetTracker t0(unlimited);
  EXPECT_FALSE(t0.exhausted());

  partition::Budget forced;
  forced.max_ms = -1.0;
  partition::BudgetTracker t1(forced);
  EXPECT_TRUE(t1.exhausted());

  partition::Budget generous;
  generous.max_ms = 1e9;
  partition::BudgetTracker t2(generous);
  EXPECT_FALSE(t2.exhausted());
}

TEST(PartitionDetMatching, IndependentOfThreadCount) {
  const GeneratedProblem p = small_fem();
  const Hypergraph h = column_net_model(pattern_of(p.incidence));
  const std::vector<index_t> serial = heavy_connectivity_matching_det(h, 1);
  for (const unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(heavy_connectivity_matching_det(h, threads), serial)
        << "threads=" << threads;
  }
  // Well-formed matching: symmetric involution.
  for (index_t v = 0; v < h.num_vertices; ++v) {
    ASSERT_GE(serial[v], 0);
    ASSERT_LT(serial[v], h.num_vertices);
    EXPECT_EQ(serial[serial[v]], v);
  }
}

TEST(PartitionFingerprint, EngineKnobsSplitTheCacheThreadsDoNot) {
  SolverOptions base;
  const std::uint64_t h0 = serve::setup_options_hash(base);

  SolverOptions threads = base;
  threads.threads = 8;  // bitwise-identical partition: must share the setup
  EXPECT_EQ(serve::setup_options_hash(threads), h0);

  SolverOptions engine = base;
  engine.partition_engine = partition::Engine::Geometric;
  EXPECT_NE(serve::setup_options_hash(engine), h0);

  SolverOptions budget = base;
  budget.partition_budget_ms = 50.0;
  EXPECT_NE(serve::setup_options_hash(budget), h0);

  SolverOptions quality = base;
  quality.partition_min_quality = 0.5;
  EXPECT_NE(serve::setup_options_hash(quality), h0);
}

// ------------------------------------------------------- value-aware weights

TEST(PartitionValues, BucketWeightsAreDeterministicAndBounded) {
  using partition::kValueWeightMax;
  using partition::ValueMode;
  using partition::value_weight;
  // Off ignores the magnitudes entirely.
  EXPECT_EQ(value_weight(123.0, 456.0, ValueMode::Off), 1);
  // Degenerate inputs collapse to the pattern-only weight.
  EXPECT_EQ(value_weight(0.0, 1.0, ValueMode::LogAbs), 1);
  EXPECT_EQ(value_weight(1.0, 0.0, ValueMode::Abs), 1);
  EXPECT_EQ(value_weight(std::numeric_limits<double>::infinity(), 1.0,
                         ValueMode::LogAbs),
            1);
  // The largest magnitude always lands in the top bucket.
  EXPECT_EQ(value_weight(1e300, 1e300, ValueMode::LogAbs), kValueWeightMax);
  EXPECT_EQ(value_weight(7.5, 7.5, ValueMode::Abs), kValueWeightMax);
  // LogAbs: one binary-exponent band down → one bucket down; far-below
  // magnitudes clamp to 1 (never 0 — the net must keep a positive cost).
  EXPECT_EQ(value_weight(0.5, 1.0, ValueMode::LogAbs), kValueWeightMax - 1);
  EXPECT_EQ(value_weight(0.25, 1.0, ValueMode::LogAbs), kValueWeightMax - 2);
  EXPECT_EQ(value_weight(1e-300, 1.0, ValueMode::LogAbs), 1);
  // Abs: linear quantization, monotone in |a_ij|.
  EXPECT_EQ(value_weight(0.5, 1.0, ValueMode::Abs),
            1 + (kValueWeightMax - 1) / 2);
  EXPECT_LE(value_weight(0.1, 1.0, ValueMode::Abs),
            value_weight(0.9, 1.0, ValueMode::Abs));
  EXPECT_GE(value_weight(1e-300, 1.0, ValueMode::Abs), 1);
}

TEST(PartitionValues, NgdEdgeWeightsAlignWithMatrixMagnitudes) {
  // Path 0–1–2 with |a_01| = 2 and |a_12| = 8: after value weighting the
  // strong edge must carry a strictly larger weight, symmetric on both
  // endpoints, and the graph must stay structurally valid.
  CooMatrix coo(3, 3);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1.0);
  coo.add(2, 2, 1.0);
  coo.add(0, 1, -2.0);
  coo.add(1, 0, -2.0);
  coo.add(1, 2, 8.0);
  coo.add(2, 1, 8.0);
  const CsrMatrix sym = symmetrize_abs(coo_to_csr(coo));
  Graph g = graph_from_matrix(sym);
  apply_value_weights(g, sym, partition::ValueMode::LogAbs);
  g.validate();
  auto weight_of = [&](index_t u, index_t v) {
    for (index_t q = g.adj_ptr[u]; q < g.adj_ptr[u + 1]; ++q) {
      if (g.adj[q] == v) return g.ewgt[q];
    }
    ADD_FAILURE() << "edge " << u << "-" << v << " missing";
    return index_t{-1};
  };
  EXPECT_EQ(weight_of(1, 2), partition::kValueWeightMax);  // the max entry
  EXPECT_EQ(weight_of(1, 2), weight_of(2, 1));
  EXPECT_LT(weight_of(0, 1), weight_of(1, 2));
  EXPECT_GE(weight_of(0, 1), 1);

  // Off is a strict no-op: pattern-only weights stay 1.
  Graph g_off = graph_from_matrix(sym);
  apply_value_weights(g_off, sym, partition::ValueMode::Off);
  for (index_t w : g_off.ewgt) EXPECT_EQ(w, 1);
}

TEST(PartitionValues, RhbValueWeightedBitwiseAcrossThreadCounts) {
  const GeneratedProblem p = small_fem();
  RhbOptions opt;
  opt.num_parts = 8;
  opt.seed = 42;
  // Deterministic non-uniform per-column buckets, as SchurSolver::setup
  // would derive from |a_ij| magnitudes.
  std::vector<index_t> buckets(static_cast<std::size_t>(p.incidence.cols));
  for (std::size_t j = 0; j < buckets.size(); ++j) {
    buckets[j] = 1 + static_cast<index_t>((j * 7) %
                                          partition::kValueWeightMax);
  }
  partition::EngineResult base;
  for (const unsigned threads : {1u, 2u, 4u}) {
    partition::EngineOptions eng;
    eng.threads = threads;
    eng.col_value = buckets;
    partition::EngineResult r = partition::rhb_engine(p.incidence, opt, eng);
    if (threads == 1) {
      base = std::move(r);
      continue;
    }
    EXPECT_EQ(r.row_part, base.row_part) << "threads=" << threads;
    EXPECT_EQ(r.unknowns.part, base.unknowns.part) << "threads=" << threads;
    EXPECT_EQ(r.unknowns.separator_size, base.unknowns.separator_size);
  }
}

TEST(PartitionValues, SolverValueWeightedBitwiseAcrossThreadCounts) {
  // End to end through SchurSolver::setup for both partitioners: the
  // value-weighted pipeline keeps the bitwise parallel == serial contract
  // at 1/2/4 threads (ISSUE acceptance pin).
  const GeneratedProblem p = small_fem();
  for (const PartitionMethod method :
       {PartitionMethod::RHB, PartitionMethod::NGD}) {
    std::vector<value_t> base_x;
    for (const unsigned threads : {1u, 2u, 4u}) {
      SolverOptions opt;
      opt.partitioning = method;
      opt.num_subdomains = 4;
      opt.threads = threads;
      opt.assembly.inner_threads = threads > 1 ? 2 : 1;
      opt.partition_values = partition::ValueMode::LogAbs;
      opt.seed = 3;
      SchurSolver solver(p.a, opt);
      solver.setup(&p.incidence);
      solver.factor();
      std::vector<value_t> b(static_cast<std::size_t>(p.a.rows), 1.0);
      std::vector<value_t> x(b.size(), 0.0);
      const GmresResult res = solver.solve(b, x);
      ASSERT_TRUE(res.converged)
          << to_string(method) << " threads=" << threads;
      if (threads == 1) {
        base_x = std::move(x);
        continue;
      }
      EXPECT_EQ(x, base_x)
          << to_string(method) << " threads=" << threads
          << ": value-weighted solve is not thread-count deterministic";
    }
  }
}

TEST(PartitionFingerprint, ValueModeSplitsTheCacheAdaptationDoesNot) {
  SolverOptions base;
  const std::uint64_t h0 = serve::setup_options_hash(base);

  SolverOptions logabs = base;
  logabs.partition_values = partition::ValueMode::LogAbs;
  SolverOptions abs = base;
  abs.partition_values = partition::ValueMode::Abs;
  EXPECT_NE(serve::setup_options_hash(logabs), h0);
  EXPECT_NE(serve::setup_options_hash(abs), h0);
  EXPECT_NE(serve::setup_options_hash(abs), serve::setup_options_hash(logabs));

  // Adaptation state lives in the serve controller, outside SolverOptions:
  // a class being re-tuned keeps its key. The only σ input to the hash is
  // the *static* drop_s the request asked for.
  EXPECT_EQ(serve::setup_options_hash(base), h0) << "hash must be pure";
}

// ---------------------------------------------------- saturating net costs

TEST(PartitionSaturation, ExtremeNetCostsClampInsteadOfOverflowing) {
  // Two identical nets with near-INT32_MAX costs spanning both matched
  // pairs: contraction merges them and must saturate the summed cost at
  // numeric_limits<index_t>::max() instead of wrapping negative (UB).
  constexpr index_t kHuge = std::numeric_limits<index_t>::max() - 1;
  Hypergraph h;
  h.num_vertices = 4;
  h.num_nets = 3;
  h.net_ptr = {0, 3, 6, 8};
  h.net_pins = {0, 1, 2, 0, 1, 2, 2, 3};
  h.net_cost = {kHuge, kHuge, 5};
  h.vwgt = {1, 1, 1, 1};
  h.build_vertex_lists();
  h.validate();

  // The deterministic matcher accumulates per-partner scores over these
  // nets (sums beyond int32 range) — must stay a well-formed involution at
  // every thread count and independent of it.
  const std::vector<index_t> serial = heavy_connectivity_matching_det(h, 1);
  for (index_t v = 0; v < h.num_vertices; ++v) {
    ASSERT_GE(serial[v], 0);
    ASSERT_LT(serial[v], h.num_vertices);
    EXPECT_EQ(serial[serial[v]], v);
  }
  for (const unsigned threads : {2u, 4u}) {
    EXPECT_EQ(heavy_connectivity_matching_det(h, threads), serial)
        << "threads=" << threads;
  }

  const HgCoarsening c = contract(h, {1, 0, 3, 2});
  for (const index_t cost : c.coarse.net_cost) {
    EXPECT_GT(cost, 0) << "net cost wrapped negative";
  }
  EXPECT_NE(std::find(c.coarse.net_cost.begin(), c.coarse.net_cost.end(),
                      std::numeric_limits<index_t>::max()),
            c.coarse.net_cost.end())
      << "merged extreme nets must saturate at the index_t ceiling";
  c.coarse.validate();
}

TEST(PartitionGeometric, RcbSplitsAreDeterministicAndComplete) {
  // 8 points on a line, unit weights: RCB into 4 parts must produce
  // contiguous pairs regardless of the item order presented.
  std::vector<double> xyz;
  for (int i = 0; i < 8; ++i) {
    xyz.push_back(static_cast<double>(i));
    xyz.push_back(0.0);
    xyz.push_back(0.0);
  }
  const std::vector<long long> w(8, 1);
  std::vector<index_t> label(8, -1);
  std::vector<index_t> items = {7, 3, 5, 1, 0, 6, 2, 4};
  partition::rcb_assign(xyz, w, items, 4, 0, label);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(label[static_cast<std::size_t>(i)], i / 2) << "point " << i;
  }
}

TEST(PartitionGeometric, StreamingAssignBalancesWeight) {
  const std::vector<long long> w = {1, 1, 1, 1, 2, 2, 2, 2};
  std::vector<index_t> items(8);
  for (index_t i = 0; i < 8; ++i) items[static_cast<std::size_t>(i)] = i;
  std::vector<index_t> label(8, -1);
  partition::streaming_assign(w, items, 4, 0, label);
  std::vector<long long> load(4, 0);
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_GE(label[i], 0);
    ASSERT_LT(label[i], 4);
    load[static_cast<std::size_t>(label[i])] += w[i];
    if (i > 0) EXPECT_GE(label[i], label[i - 1]);  // contiguous split
  }
  for (long long l : load) EXPECT_GT(l, 0);
}

}  // namespace
}  // namespace pdslin
