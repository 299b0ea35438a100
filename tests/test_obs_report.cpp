// Metrics registry semantics (find-or-create, kind conflicts, concurrent
// updates, snapshot/JSON export, reset) and RunReport schema round-trips —
// including a real end-to-end solve checked for the counters the pipeline
// instrumentation is contracted to produce.
//
// The registry is process-global; tests use unique "test."-prefixed metric
// names so they never collide with the solver's own instrumentation.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "core/schur_solver.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "parallel/thread_pool.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace pdslin {
namespace {

TEST(ObsMetrics, CounterFindOrCreateIsStable) {
  obs::Counter& c = obs::counter("test.counter.stable");
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  // Same name resolves to the same instance.
  EXPECT_EQ(&obs::counter("test.counter.stable"), &c);
}

TEST(ObsMetrics, GaugeLastWriteWins) {
  obs::Gauge& g = obs::gauge("test.gauge.lww");
  g.set(1.5);
  g.set(-3.25);
  EXPECT_EQ(g.value(), -3.25);
}

TEST(ObsMetrics, HistogramBucketsObservations) {
  const std::array<double, 3> bounds{1.0, 10.0, 100.0};
  obs::Histogram& h = obs::histogram("test.hist.buckets", bounds);
  h.observe(0.5);    // <= 1       -> bucket 0
  h.observe(1.0);    // <= 1       -> bucket 0
  h.observe(5.0);    // <= 10      -> bucket 1
  h.observe(1000.0); // overflow   -> bucket 3
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
  const std::vector<long long> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 0);
  EXPECT_EQ(counts[3], 1);
}

TEST(ObsMetrics, KindConflictThrows) {
  obs::counter("test.conflict.kind");
  EXPECT_THROW(obs::gauge("test.conflict.kind"), Error);
  const std::array<double, 1> bounds{1.0};
  EXPECT_THROW(obs::histogram("test.conflict.kind", bounds), Error);
}

TEST(ObsMetrics, ConcurrentCounterAddsAreLossless) {
  obs::Counter& c = obs::counter("test.counter.concurrent");
  const long long before = c.value();
  parallel_for(ThreadPool::shared(), 64, [](int) {
    // First-lookup path under contention, then the cached hot path.
    static obs::Counter& cc = obs::counter("test.counter.concurrent");
    for (int i = 0; i < 100; ++i) cc.add();
  });
  EXPECT_EQ(c.value(), before + 64 * 100);
}

TEST(ObsMetrics, SnapshotSortedAndJsonParses) {
  obs::counter("test.snap.b").add(2);
  obs::gauge("test.snap.a").set(1.0);
  const std::vector<obs::MetricSample> snap =
      obs::MetricsRegistry::instance().snapshot();
  ASSERT_GE(snap.size(), 2u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name);
  }
  // The snapshot reaches JSON through the RunReport's metrics block.
  obs::RunReport rep;
  rep.capture_metrics();
  EXPECT_EQ(rep.metrics, snap);
  const obs::RunReport back = obs::RunReport::from_json(rep.to_json());
  const auto value_of = [&](std::string_view name) {
    for (const obs::MetricSample& m : back.metrics) {
      if (m.name == name) return m.value;
    }
    ADD_FAILURE() << name << " missing from the parsed report";
    return -1.0;
  };
  EXPECT_EQ(value_of("test.snap.b"), 2.0);
  EXPECT_EQ(value_of("test.snap.a"), 1.0);
}

TEST(ObsMetrics, ResetZeroesValuesButKeepsNames) {
  obs::Counter& c = obs::counter("test.reset.counter");
  c.add(7);
  obs::MetricsRegistry::instance().reset_values();
  EXPECT_EQ(c.value(), 0);
  // Name still registered: find-or-create returns the same zeroed instance.
  EXPECT_EQ(&obs::counter("test.reset.counter"), &c);
  c.add(1);
  EXPECT_EQ(c.value(), 1);
}

TEST(ObsMetrics, EmptyHistogramQuantileIsZero) {
  const double bounds[] = {1.0, 10.0, 100.0};
  obs::Histogram& h = obs::histogram("test.histogram.empty_quantile", bounds);
  ASSERT_EQ(h.count(), 0);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_TRUE(std::isfinite(v)) << "q=" << q;
    EXPECT_EQ(v, 0.0) << "q=" << q;
  }
}

obs::RunReport sample_report() {
  obs::RunReport rep;
  rep.tool = "test/report";
  rep.matrix = "grid24";
  rep.n = 576;
  rep.nnz = 2832;
  rep.set_config("partitioning", "ngd");
  rep.set_config("num_subdomains", "4");
  rep.set_phase("partition", 0.0125);
  rep.set_phase("solve", 1.5);
  rep.set_stat("gmres_iterations", 12);
  rep.set_stat("relative_residual", 3.25e-11);
  return rep;
}

TEST(ObsReport, JsonRoundTripIsLossless) {
  obs::RunReport rep = sample_report();
  obs::counter("test.report.counter").add(3);
  rep.capture_metrics();
  const obs::RunReport back = obs::RunReport::from_json(rep.to_json());
  EXPECT_EQ(back, rep);
}

TEST(ObsReport, CompactLineRoundTripsAndIsOneLine) {
  const obs::RunReport rep = sample_report();
  const std::string line = rep.to_json_line();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(obs::RunReport::from_json(line), rep);
}

TEST(ObsReport, SettersOverwriteInPlace) {
  obs::RunReport rep;
  rep.set_stat("x", 1.0);
  rep.set_stat("x", 2.0);
  ASSERT_EQ(rep.stats.size(), 1u);
  const double* x = rep.find_stat("x");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(*x, 2.0);
  rep.set_config("k", "a");
  rep.set_config("k", "b");
  ASSERT_EQ(rep.config.size(), 1u);
  const std::string* k = rep.find_config("k");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(*k, "b");
  EXPECT_EQ(rep.find_stat("missing"), nullptr);
  EXPECT_EQ(rep.find_config("missing"), nullptr);
}

TEST(ObsReport, RejectsMalformedAndWrongSchema) {
  EXPECT_THROW(obs::RunReport::from_json("not json"), Error);
  EXPECT_THROW(obs::RunReport::from_json("{\"schema_version\":999}"), Error);
}

// End-to-end contract: a real solve produces the pipeline's instrumented
// counters and add_solver() exports the stats the acceptance criteria name.
TEST(ObsReport, SolverRunFillsReportAndCounters) {
  const CsrMatrix a = testing::grid_laplacian(24, 24);
  SolverOptions opt;
  opt.num_subdomains = 4;
  opt.seed = 3;

  obs::Counter& iters = obs::counter("gmres.iters");
  const long long iters_before = iters.value();

  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();
  std::vector<value_t> b(a.rows, 1.0), x(a.rows, 0.0);
  const GmresResult r = solver.solve(b, x);
  ASSERT_TRUE(r.converged);

  // gmres.iters is monotonic and advanced by exactly this run's iterations.
  EXPECT_EQ(iters.value(), iters_before + r.iterations);

  obs::RunReport rep;
  rep.tool = "test/solver_run";
  rep.matrix = "grid_laplacian_24";
  rep.n = a.rows;
  rep.nnz = a.nnz();
  rep.add_solver(opt, solver.stats());
  rep.capture_metrics();

  const double* allocs = rep.find_stat("solve_workspace_allocs");
  ASSERT_NE(allocs, nullptr);
  EXPECT_GE(*allocs, 0.0);
  EXPECT_NE(rep.find_stat("iterations"), nullptr);
  // Comp(S)'s G and W solves, split into symbolic and numeric time, and
  // which build of the dense kernels ran.
  for (const char* key :
       {"comp_s_solve_g_symbolic_seconds", "comp_s_solve_g_numeric_seconds",
        "comp_s_solve_w_symbolic_seconds", "comp_s_solve_w_numeric_seconds"}) {
    const double* v = rep.find_stat(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_GE(*v, 0.0) << key;
  }
  const double* avx2 = rep.find_stat("kernel_path_avx2");
  ASSERT_NE(avx2, nullptr);
  EXPECT_EQ(*avx2,
            panel::kernel_path() == panel::KernelPath::Avx2 ? 1.0 : 0.0);
  EXPECT_EQ(solver.stats().kernel_path, panel::kernel_path());
  EXPECT_GT(solver.stats().solve_g_symbolic_seconds +
                solver.stats().solve_g_numeric_seconds,
            0.0);
  ASSERT_NE(rep.find_config("num_subdomains"), nullptr);
  EXPECT_EQ(*rep.find_config("num_subdomains"), "4");

  // The captured snapshot includes the pipeline counters.
  bool saw_gmres = false, saw_trisolve = false;
  for (const obs::MetricSample& m : rep.metrics) {
    if (m.name == "gmres.iters") saw_gmres = true;
    if (m.name == "trisolve.rhs_blocks") saw_trisolve = true;
  }
  EXPECT_TRUE(saw_gmres);
  EXPECT_TRUE(saw_trisolve);

  // And a second solve keeps the counter monotonic.
  std::vector<value_t> x2(a.rows, 0.0);
  const GmresResult r2 = solver.solve(b, x2);
  ASSERT_TRUE(r2.converged);
  EXPECT_EQ(iters.value(), iters_before + r.iterations + r2.iterations);

  // Round-trip the full report including the metrics snapshot.
  EXPECT_EQ(obs::RunReport::from_json(rep.to_json()), rep);
}

// add_solver() writes one config key per entry of the SolverOptions field
// table, in table order, and every value survives the JSON round trip.
TEST(ObsReport, AddSolverWritesEveryOptionField) {
  SolverOptions opt;
  opt.constraints = RhbConstraintMode::MultiW1W2;
  opt.krylov.restart = 45;
  obs::RunReport rep;
  rep.add_solver(opt, SolverStats{});

  std::vector<std::string> keys;
  for_each_option(opt, [&keys](const auto& field) {
    keys.emplace_back(field.key);
  });
  ASSERT_EQ(rep.config.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(rep.config[i].first, keys[i]);
  }
  const obs::RunReport back = obs::RunReport::from_json(rep.to_json());
  EXPECT_EQ(back.config, rep.config);

  // Keys that predate the table keep their renderings; the others say
  // which constraint mode and restart ran.
  const auto config = [&back](const char* key) {
    const std::string* v = back.find_config(key);
    return v != nullptr ? *v : std::string("<missing>");
  };
  EXPECT_EQ(config("partitioning"), "RHB");
  EXPECT_EQ(config("metric"), "soed");
  EXPECT_EQ(config("epsilon"), obs::json::number_to_string(0.10));
  EXPECT_EQ(config("drop_s"), obs::json::number_to_string(1e-10));
  EXPECT_EQ(config("num_subdomains"), "8");
  EXPECT_EQ(config("seed"), "1");
  // Which LU kernel ran is not an option: no input can tell them apart.
  EXPECT_EQ(back.find_config("lu_kernel"), nullptr);
  // Nor is a per-subdomain worker count: the work inside one is serial.
  EXPECT_EQ(back.find_config("inner_threads"), nullptr);
  EXPECT_EQ(config("constraints"), "w1w2");
  EXPECT_EQ(config("lu_pivot_tol"), obs::json::number_to_string(0.1));
  EXPECT_EQ(config("krylov_restart"), "45");
  // One KrylovOptions serves both methods: no per-method keys.
  EXPECT_EQ(back.find_config("gmres_restart"), nullptr);
  EXPECT_EQ(back.find_config("bicgstab_max_iterations"), nullptr);
  EXPECT_EQ(config("rhb_dynamic_weights"), "true");
}

}  // namespace
}  // namespace pdslin
