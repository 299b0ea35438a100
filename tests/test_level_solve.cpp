// Level-scheduled triangular solves (ISSUE 7): the bitwise parallel==serial
// contract of the LevelSchedule engine across dense and multi-RHS paths,
// the trisolve-layer hardening satellites (zero-pivot guards, empty-quantile
// pin), and the serve-cache invariants (the
// scheduler must not split the fingerprint; schedules charge memory_bytes).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "core/preconditioner.hpp"
#include "core/schur_solver.hpp"
#include "direct/level_solve.hpp"
#include "direct/lu.hpp"
#include "direct/multirhs.hpp"
#include "direct/trisolve.hpp"
#include "obs/metrics.hpp"
#include "serve/fingerprint.hpp"
#include "serve/service.hpp"
#include "sparse/coo.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "test_util.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pdslin {
namespace {

bool bitwise_equal(std::span<const value_t> a, std::span<const value_t> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)) == 0);
}

std::vector<value_t> random_rhs(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> b(n);
  for (auto& v : b) v = rng.uniform(-1, 1);
  return b;
}

LuFactors factor_grid(LuKernel kernel, index_t nx = 16, index_t ny = 16) {
  const CsrMatrix a = testing::grid_laplacian(nx, ny);
  LuOptions opt;
  opt.kernel = kernel;
  return lu_factorize(a, opt);
}

// Sparse RHS block: `cols` columns, each with a handful of entries.
CscMatrix random_sparse_rhs(index_t n, index_t cols, std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix coo(n, cols);
  for (index_t j = 0; j < cols; ++j) {
    const index_t k = 1 + static_cast<index_t>(rng.bounded(4));
    for (index_t e = 0; e < k; ++e) {
      coo.add(static_cast<index_t>(rng.bounded(static_cast<std::uint32_t>(n))),
              j, rng.uniform(-1.0, 1.0));
    }
  }
  return csr_to_csc(coo_to_csr(coo));
}

// ------------------------------------------------------- dense solve bitwise

TEST(LevelSolve, DenseSolveBitwiseMatchesSerial) {
  for (const LuKernel kernel : {LuKernel::Scalar, LuKernel::Panel}) {
    const LuFactors f = factor_grid(kernel);
    const auto schedules = build_trisolve_schedules(f);
    const auto b = random_rhs(f.n, 11);
    std::vector<value_t> x_serial(f.n), x_sched(f.n);
    lu_solve(f, b, x_serial);
    for (const unsigned threads : {1u, 4u}) {
      lu_solve_scheduled(f, *schedules, b, x_sched, threads);
      EXPECT_TRUE(bitwise_equal(x_serial, x_sched))
          << "kernel=" << static_cast<int>(kernel) << " threads=" << threads;
    }
  }
}

TEST(LevelSolve, RandomUnsymmetricBitwise) {
  Rng rng(5);
  const CsrMatrix a = testing::random_pattern_symmetric(150, 0.06, rng);
  const LuFactors f = lu_factorize(a, {});
  const auto schedules = build_trisolve_schedules(f);
  const auto b = random_rhs(f.n, 23);
  std::vector<value_t> x_serial(f.n), x_sched(f.n);
  lu_solve(f, b, x_serial);
  lu_solve_scheduled(f, *schedules, b, x_sched, 4);
  EXPECT_TRUE(bitwise_equal(x_serial, x_sched));
}

// ---------------------------------------------------- multi-RHS solve bitwise

TEST(LevelSolve, MultiRhsLevelSetBitwise) {
  const LuFactors f = factor_grid(LuKernel::Panel);
  const CscMatrix rhs = random_sparse_rhs(f.n, 40, 17);
  std::vector<index_t> order(rhs.cols);
  for (index_t j = 0; j < rhs.cols; ++j) order[j] = j;

  MultiRhsOptions serial;
  serial.block_size = 12;
  const MultiRhsResult base = solve_multi_rhs_blocked(f.lower, rhs, order, serial);

  const LevelSchedule sched =
      LevelSchedule::build_lower(f.lower, /*unit_diag=*/true, &f.panels);
  for (const unsigned inner : {1u, 3u}) {
    MultiRhsOptions par = serial;
    par.threads = 2;  // block-parallel axis composes with the level axis
    par.trisolve.scheduler = TrisolveScheduler::LevelSet;
    par.trisolve.threads = inner;
    par.schedule = &sched;
    const MultiRhsResult got = solve_multi_rhs_blocked(f.lower, rhs, order, par);
    EXPECT_EQ(base.solution.col_ptr, got.solution.col_ptr);
    EXPECT_EQ(base.solution.row_idx, got.solution.row_idx);
    EXPECT_TRUE(bitwise_equal(base.solution.values, got.solution.values))
        << "trisolve threads=" << inner;
  }
}

TEST(LevelSolve, MultiRhsTransposedUpperBitwise) {
  // The W-solve path: Uᵀ is lower triangular with a non-unit leading
  // diagonal, exercising the dj != 1.0 division lane of the gather kernel.
  const LuFactors f = factor_grid(LuKernel::Panel);
  const CscMatrix ut = transpose(f.upper);
  const CscMatrix rhs = random_sparse_rhs(f.n, 25, 31);
  std::vector<index_t> order(rhs.cols);
  for (index_t j = 0; j < rhs.cols; ++j) order[j] = j;

  MultiRhsOptions serial;
  serial.block_size = 8;
  const MultiRhsResult base = solve_multi_rhs_blocked(ut, rhs, order, serial);

  const LevelSchedule sched =
      LevelSchedule::build_lower(ut, /*unit_diag=*/false, &f.panels);
  MultiRhsOptions par = serial;
  par.trisolve.scheduler = TrisolveScheduler::LevelSet;
  par.trisolve.threads = 3;
  par.schedule = &sched;
  const MultiRhsResult got = solve_multi_rhs_blocked(ut, rhs, order, par);
  EXPECT_EQ(base.solution.col_ptr, got.solution.col_ptr);
  EXPECT_EQ(base.solution.row_idx, got.solution.row_idx);
  EXPECT_TRUE(bitwise_equal(base.solution.values, got.solution.values));
}

// ----------------------------------------------------------- schedule shape

TEST(LevelSolve, ScheduleStatsAndRowLevels) {
  const LuFactors f = factor_grid(LuKernel::Panel);
  const auto schedules = build_trisolve_schedules(f);
  const LevelSchedule::Stats& st = schedules->lower.stats();
  EXPECT_GE(st.levels, 1);
  EXPECT_GE(st.blocks, 1);
  EXPECT_GT(st.avg_level_width, 0.0);
  EXPECT_GE(st.max_level_width, 1);
  EXPECT_LE(st.blocks, f.n);  // panels merge columns
  EXPECT_TRUE(st.supernodal);
  EXPECT_GT(schedules->memory_bytes(), 0u);

  // Row levels are a valid topological labelling: every off-diagonal entry
  // L(i, j) forces level(i) > level(j).
  const std::span<const index_t> lev = schedules->lower.row_level();
  for (index_t j = 0; j < f.n; ++j) {
    for (index_t p = f.lower.col_ptr[j] + 1; p < f.lower.col_ptr[j + 1]; ++p) {
      EXPECT_GT(lev[f.lower.row_idx[p]], lev[j]);
    }
  }
  // A grid factor has real dependency chains — the schedule must be deeper
  // than one level, and never deeper than fully serial. (This unordered
  // banded factor degenerates to a panel chain — levels == blocks is legal;
  // fill-reduced factors get genuinely wide levels, which the bench gates.)
  EXPECT_GT(schedules->lower.row_level_count(), 1);
  EXPECT_LE(st.levels, st.blocks);
}

TEST(LevelSolve, SingletonFallbackWithoutPanels) {
  const LuFactors f = factor_grid(LuKernel::Scalar);
  LuFactors stripped = f;
  stripped.panels = Supernodes{};
  const auto schedules = build_trisolve_schedules(stripped);
  EXPECT_FALSE(schedules->lower.stats().supernodal);
  EXPECT_EQ(schedules->lower.stats().blocks, f.n);
  const auto b = random_rhs(f.n, 3);
  std::vector<value_t> x_serial(f.n), x_sched(f.n);
  lu_solve(f, b, x_serial);
  lu_solve_scheduled(stripped, *schedules, b, x_sched, 4);
  EXPECT_TRUE(bitwise_equal(x_serial, x_sched));
}

// ------------------------------------------------- zero-pivot guards (bugfix)

CscMatrix tiny_upper_zero_diag() {
  // U = [[1, 2], [0, 0]] — structurally present but numerically zero pivot.
  CscMatrix u(2, 2);
  u.col_ptr = {0, 1, 3};
  u.row_idx = {0, 0, 1};
  u.values = {1.0, 2.0, 0.0};
  return u;
}

TEST(LevelSolve, UpperSolveDenseZeroPivotThrows) {
  const CscMatrix u = tiny_upper_zero_diag();
  std::vector<value_t> x = {1.0, 1.0};
  EXPECT_THROW(upper_solve_dense(u, x), Error);
  try {
    std::vector<value_t> y = {1.0, 1.0};
    upper_solve_dense(u, y);
    FAIL() << "expected singular Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("singular"), std::string::npos);
  }
}

TEST(LevelSolve, LowerSolveDenseZeroPivotThrows) {
  // Non-unit lower solve dividing by a planted zero diagonal.
  CscMatrix l(2, 2);
  l.col_ptr = {0, 2, 3};
  l.row_idx = {0, 1, 1};
  l.values = {0.0, 3.0, 1.0};
  std::vector<value_t> x = {1.0, 1.0};
  EXPECT_THROW(lower_solve_dense(l, x, /*unit_diag=*/false), Error);
}

TEST(LevelSolve, SparseLowerSolverZeroPivotThrows) {
  CscMatrix l(2, 2);
  l.col_ptr = {0, 2, 3};
  l.row_idx = {0, 1, 1};
  l.values = {0.0, 3.0, 1.0};
  SparseLowerSolver solver(l);
  const std::vector<index_t> rows = {0};
  const std::vector<value_t> vals = {1.0};
  EXPECT_THROW(solver.solve(rows, vals), Error);
}

TEST(LevelSolve, ScheduleBuildRejectsZeroDiagonal) {
  EXPECT_THROW(LevelSchedule::build_upper(tiny_upper_zero_diag()), Error);
  CscMatrix l(2, 2);
  l.col_ptr = {0, 2, 3};
  l.row_idx = {0, 1, 1};
  l.values = {0.0, 3.0, 1.0};
  EXPECT_THROW(LevelSchedule::build_lower(l, /*unit_diag=*/false), Error);
  // Unit-diagonal lower solves never divide — a zero there is legal.
  EXPECT_NO_THROW(LevelSchedule::build_lower(l, /*unit_diag=*/true));
}

// ------------------------------------------------- histogram audit (bugfix)

TEST(LevelSolve, EmptyHistogramQuantileIsZero) {
  const double bounds[] = {1.0, 10.0, 100.0};
  obs::Histogram& h = obs::histogram("test.level_solve.empty_quantile", bounds);
  ASSERT_EQ(h.count(), 0);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_TRUE(std::isfinite(v)) << "q=" << q;
    EXPECT_EQ(v, 0.0) << "q=" << q;
  }
}

// --------------------------------------------------- end-to-end + serve cache

SolverOptions levelset_options(unsigned threads) {
  SolverOptions opt;
  opt.num_subdomains = 4;
  opt.seed = 3;
  opt.assembly.trisolve.scheduler = TrisolveScheduler::LevelSet;
  opt.assembly.trisolve.threads = threads;
  return opt;
}

TEST(LevelSolve, SolverEndToEndBitwiseAndScheduleMemory) {
  const CsrMatrix a = testing::grid_laplacian(20, 20);
  SolverOptions serial;
  serial.num_subdomains = 4;
  serial.seed = 3;

  SchurSolver s_serial(a, serial);
  s_serial.setup();
  s_serial.factor();
  const auto b = random_rhs(a.rows, 41);
  std::vector<value_t> x_serial(a.rows, 0.0);
  const GmresResult r0 = s_serial.solve(b, x_serial);
  ASSERT_TRUE(r0.converged);

  for (const unsigned threads : {1u, 3u}) {
    SchurSolver s_level(a, levelset_options(threads));
    s_level.setup();
    s_level.factor();
    std::vector<value_t> x_level(a.rows, 0.0);
    const GmresResult r1 = s_level.solve(b, x_level);
    EXPECT_EQ(r0.iterations, r1.iterations);
    EXPECT_TRUE(bitwise_equal(x_serial, x_level)) << "threads=" << threads;
    // The cached schedules are charged into the solver's byte accounting —
    // this is what the serve cache's capacity sees.
    EXPECT_GT(s_level.memory_bytes(), s_serial.memory_bytes());
  }
}

TEST(LevelSolve, FingerprintIgnoresSchedulerChoice) {
  SolverOptions serial;
  serial.num_subdomains = 4;
  serial.seed = 3;
  const std::uint64_t h_serial = serve::setup_options_hash(serial);
  EXPECT_EQ(h_serial, serve::setup_options_hash(levelset_options(1)));
  EXPECT_EQ(h_serial, serve::setup_options_hash(levelset_options(4)));
  // Sanity: knobs that do change bits still split the hash.
  SolverOptions dropped = serial;
  dropped.assembly.drop_s = 0.5;
  EXPECT_NE(h_serial, serve::setup_options_hash(dropped));
}

TEST(LevelSolve, ServeCacheReusedAcrossSchedulers) {
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(16, 16));
  serve::ServiceConfig cfg;
  serve::SolveService service(cfg);

  serve::SolveRequest cold;
  cold.a = a;
  SolverOptions serial;
  serial.num_subdomains = 4;
  serial.seed = 3;
  cold.opt = serial;
  cold.b = random_rhs(a->rows, 9);
  const serve::SolveResponse r0 = service.solve(cold);
  ASSERT_EQ(r0.status, serve::ServeStatus::Ok);
  EXPECT_FALSE(r0.cache_hit);

  // Same matrix + options except the trisolve engine: must be a *full*
  // cache hit (no fingerprint split) and bitwise the same answer.
  serve::SolveRequest warm = cold;
  warm.opt = levelset_options(3);
  const serve::SolveResponse r1 = service.solve(warm);
  ASSERT_EQ(r1.status, serve::ServeStatus::Ok);
  EXPECT_TRUE(r1.cache_hit);
  EXPECT_FALSE(r1.symbolic_reuse);
  EXPECT_TRUE(bitwise_equal(r0.x, r1.x));
}

// ------------------------------------------------------------- preconditioner

TEST(LevelSolve, PreconditionerApplyBitwise) {
  Rng rng(7);
  const CsrMatrix s = testing::random_pattern_symmetric(90, 0.08, rng);
  const SchurPreconditioner serial(s);
  TrisolveOptions ts;
  ts.scheduler = TrisolveScheduler::LevelSet;
  ts.threads = 4;
  const SchurPreconditioner level(s, {}, ts);
  EXPECT_NE(level.schedules(), nullptr);
  EXPECT_GT(level.memory_bytes(), serial.memory_bytes());

  const auto v = random_rhs(s.rows, 13);
  std::vector<value_t> y0(s.rows), y1(s.rows);
  serial.apply(v, y0);
  level.apply(v, y1);
  EXPECT_TRUE(bitwise_equal(y0, y1));
}

}  // namespace
}  // namespace pdslin
