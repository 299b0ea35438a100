// Tests for the extension features (paper §VI future work and PDSLin's
// alternative Krylov method): parallel RHB determinism and BiCGSTAB.
#include <gtest/gtest.h>

#include "core/schur_solver.hpp"
#include "gen/grid_fem.hpp"
#include "gen/suite.hpp"
#include "iterative/bicgstab.hpp"
#include "partition/engine.hpp"
#include "sparse/ops.hpp"
#include "test_util.hpp"

namespace pdslin {
namespace {

TEST(Bicgstab, IdentityAndZeroRhs) {
  const CsrMatrix eye = testing::from_dense({{1, 0}, {0, 1}});
  const MatrixOperator op(eye);
  std::vector<value_t> b{3, -4}, x(2, 0.0);
  const BicgstabResult r = bicgstab(op, nullptr, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], -4.0, 1e-12);

  std::vector<value_t> z{0, 0}, xz{9, 9};
  EXPECT_TRUE(bicgstab(op, nullptr, z, xz).converged);
  EXPECT_EQ(xz, (std::vector<value_t>{0, 0}));
}

TEST(Bicgstab, LaplacianConverges) {
  const CsrMatrix a = testing::grid_laplacian(12, 12);
  const MatrixOperator op(a);
  Rng rng(3);
  std::vector<value_t> b(a.rows), x(a.rows, 0.0);
  for (auto& v : b) v = rng.uniform(-1, 1);
  KrylovOptions opt;
  opt.rel_tolerance = 1e-10;
  const BicgstabResult r = bicgstab(op, nullptr, b, x, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(residual_norm(a, x, b) / norm2(b), 1e-8);
}

TEST(Bicgstab, ExactPreconditionerFewIterations) {
  Rng rng(7);
  const CsrMatrix a = testing::random_pattern_symmetric(40, 0.15, rng);
  const MatrixOperator op(a);
  const SchurPreconditioner lu(a);
  std::vector<value_t> scratch;
  const PrecondView precond(lu, scratch);
  std::vector<value_t> b(40), x(40, 0.0);
  for (auto& v : b) v = rng.uniform(-1, 1);
  const BicgstabResult r = bicgstab(op, &precond, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 3);
}

TEST(SchurSolverKrylov, BicgstabMatchesGmresSolution) {
  const CsrMatrix a = testing::grid_laplacian(18, 18);
  Rng rng(11);
  std::vector<value_t> b(a.rows);
  for (auto& v : b) v = rng.uniform(-1, 1);

  auto solve_with = [&](KrylovMethod method) {
    SolverOptions opt;
    opt.num_subdomains = 4;
    opt.krylov.method = method;
    SchurSolver solver(a, opt);
    solver.setup();
    solver.factor();
    std::vector<value_t> x(a.rows, 0.0);
    EXPECT_TRUE(solver.solve(b, x).converged) << to_string(method);
    return x;
  };
  const auto xg = solve_with(KrylovMethod::Gmres);
  const auto xb = solve_with(KrylovMethod::Bicgstab);
  for (index_t i = 0; i < a.rows; ++i) EXPECT_NEAR(xg[i], xb[i], 1e-7);
}

TEST(ParallelRhb, DeterministicAcrossRuns) {
  const GeneratedProblem p = make_suite_matrix("dds.linear", 0.03);
  RhbOptions opt;
  opt.num_parts = 4;
  opt.seed = 99;
  partition::EngineOptions eng;
  eng.threads = 3;
  const auto a = partition::rhb_engine(p.incidence, opt, eng);
  const auto b = partition::rhb_engine(p.incidence, opt, eng);
  EXPECT_EQ(a.unknowns.part, b.unknowns.part);
}

TEST(WeightedNgd, SolvesAndBalancesNnz) {
  const GeneratedProblem p = make_suite_matrix("matrix211", 0.12);
  SolverOptions opt;
  opt.num_subdomains = 4;
  opt.partitioning = PartitionMethod::NGD;
  opt.ngd_weighted = true;
  SchurSolver solver(p.a, opt);
  solver.setup();
  solver.factor();
  Rng rng(3);
  std::vector<value_t> b(p.a.rows), x(p.a.rows, 0.0);
  for (auto& v : b) v = rng.uniform(-1, 1);
  EXPECT_TRUE(solver.solve(b, x).converged);
  EXPECT_LT(residual_norm(p.a, x, b) / norm2(b), 1e-7);
}

TEST(ConfigStrings, AllEnumsPrintable) {
  EXPECT_STREQ(to_string(KrylovMethod::Gmres), "gmres");
  EXPECT_STREQ(to_string(KrylovMethod::Bicgstab), "bicgstab");
  EXPECT_STREQ(to_string(PartitionMethod::RHB), "RHB");
  EXPECT_STREQ(to_string(PartitionMethod::NGD), "NGD");
  EXPECT_STREQ(to_string(RhsOrdering::Hypergraph), "hypergraph");
  EXPECT_STREQ(to_string(CutMetric::Soed), "soed");
  EXPECT_STREQ(to_string(RhbConstraintMode::SingleW1), "w1");
  EXPECT_STREQ(to_string(RhbConstraintMode::MultiW1W2), "w1w2");
}

}  // namespace
}  // namespace pdslin
