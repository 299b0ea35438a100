// Tests for the parallel partitioning engine (src/partition/): thread-count
// determinism, the stats a solver set-up records, the deterministic
// coarsening matching, value-aware weighting, and the serve-layer
// fingerprint contract for the partition knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "check/invariants.hpp"
#include "core/schur_solver.hpp"
#include "gen/grid_fem.hpp"
#include "graph/graph.hpp"
#include "graph/nested_dissection.hpp"
#include "hypergraph/coarsen.hpp"
#include "hypergraph/hypergraph.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "partition/engine.hpp"
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

TEST(PartitionEngine, SolverSetupRecordsEngineStats) {
  const GeneratedProblem p = small_fem();
  SolverOptions opt;
  opt.num_subdomains = 4;
  SchurSolver solver(p.a, opt);
  solver.setup(&p.incidence);
  // Every attempt of the multi-start recursion bisects k − 1 nodes.
  EXPECT_EQ(solver.stats().partition_multilevel_subtrees,
            (opt.num_subdomains - 1) * RhbOptions{}.attempts);
  EXPECT_GE(solver.stats().partition_balance_ratio, 1.0);
  EXPECT_LT(solver.stats().partition_balance_ratio, 1e30);
  EXPECT_GT(solver.stats().partition_seconds, 0.0);
  check::CheckReport rep;
  check::check_partition(solver.matrix(), solver.partition(), rep);
  EXPECT_TRUE(rep.ok()) << rep.summary();

  // The partition must carry a working solve.
  solver.factor();
  std::vector<value_t> b(static_cast<std::size_t>(p.a.rows), 1.0);
  std::vector<value_t> x(b.size(), 0.0);
  const GmresResult res = solver.solve(b, x);
  EXPECT_TRUE(res.converged);
}

TEST(PartitionDetMatching, IndependentOfThreadCount) {
  const GeneratedProblem p = small_fem();
  const Hypergraph h = column_net_model(pattern_of(p.incidence));
  const std::vector<index_t> serial = heavy_connectivity_matching_det(h, 1);
  for (const unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(heavy_connectivity_matching_det(h, threads), serial)
        << "threads=" << threads;
  }
  // A thread count far past the pool's size: each range holds an n-long
  // score array, so the matcher makes at most the pool's size of ranges per
  // round (8 rounds at most), not one per vertex.
  obs::Counter& executed = obs::counter("pool.tasks_executed");
  obs::Counter& stolen = obs::counter("pool.tasks_stolen");
  const long long tasks0 = executed.value() + stolen.value();
  EXPECT_EQ(heavy_connectivity_matching_det(h, 1u << 16), serial);
  EXPECT_LE(executed.value() + stolen.value() - tasks0,
            8LL * ThreadPool::shared().size());
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

  SolverOptions metric = base;
  metric.metric = CutMetric::Con1;
  EXPECT_NE(serve::setup_options_hash(metric), h0);
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

TEST(PartitionFingerprint, ValueModeSplitsTheCache) {
  SolverOptions base;
  const std::uint64_t h0 = serve::setup_options_hash(base);

  SolverOptions logabs = base;
  logabs.partition_values = partition::ValueMode::LogAbs;
  SolverOptions abs = base;
  abs.partition_values = partition::ValueMode::Abs;
  EXPECT_NE(serve::setup_options_hash(logabs), h0);
  EXPECT_NE(serve::setup_options_hash(abs), h0);
  EXPECT_NE(serve::setup_options_hash(abs), serve::setup_options_hash(logabs));
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

}  // namespace
}  // namespace pdslin
