// GMRES/BiCGSTAB tests: exact convergence cases, restarts, right
// preconditioning, and the breakdown regressions (happy breakdown on a
// closing Krylov space; BiCGSTAB ρ/ω/overflow stagnation).
#include <gtest/gtest.h>

#include <cmath>

#include "core/preconditioner.hpp"
#include "iterative/bicgstab.hpp"
#include "iterative/gmres.hpp"
#include "sparse/ops.hpp"
#include "test_util.hpp"

namespace pdslin {
namespace {

TEST(Gmres, IdentityConvergesImmediately) {
  const CsrMatrix eye = testing::from_dense({{1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  const MatrixOperator op(eye);
  std::vector<value_t> b{1, 2, 3}, x(3, 0.0);
  const GmresResult r = gmres(op, nullptr, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 1);
  for (index_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], b[i], 1e-12);
}

TEST(Gmres, ZeroRhsGivesZero) {
  const CsrMatrix eye = testing::from_dense({{2, 0}, {0, 2}});
  const MatrixOperator op(eye);
  std::vector<value_t> b{0, 0}, x{5, -7};
  const GmresResult r = gmres(op, nullptr, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(x, (std::vector<value_t>{0, 0}));
}

TEST(Gmres, LaplacianUnpreconditioned) {
  const CsrMatrix a = testing::grid_laplacian(10, 10);
  const MatrixOperator op(a);
  Rng rng(3);
  std::vector<value_t> b(a.rows), x(a.rows, 0.0);
  for (auto& v : b) v = rng.uniform(-1, 1);
  KrylovOptions opt;
  opt.restart = 40;
  opt.max_iterations = 500;
  opt.rel_tolerance = 1e-10;
  const GmresResult r = gmres(op, nullptr, b, x, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(residual_norm(a, x, b) / norm2(b), 1e-9);
}

TEST(Gmres, RestartStillConverges) {
  const CsrMatrix a = testing::grid_laplacian(8, 8);
  const MatrixOperator op(a);
  Rng rng(5);
  std::vector<value_t> b(a.rows), x(a.rows, 0.0);
  for (auto& v : b) v = rng.uniform(-1, 1);
  KrylovOptions opt;
  opt.restart = 5;  // force many restart cycles
  opt.max_iterations = 2000;
  const GmresResult r = gmres(op, nullptr, b, x, opt);
  EXPECT_TRUE(r.converged);
}

TEST(Gmres, ExactPreconditionerOneIteration) {
  Rng rng(7);
  const CsrMatrix a = testing::random_pattern_symmetric(30, 0.2, rng);
  const MatrixOperator op(a);
  const SchurPreconditioner lu(a);  // LU of A itself: M⁻¹ = A⁻¹
  std::vector<value_t> scratch;
  const PrecondView precond(lu, scratch);
  std::vector<value_t> b(30), x(30, 0.0);
  for (auto& v : b) v = rng.uniform(-1, 1);
  const GmresResult r = gmres(op, &precond, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 2);
  EXPECT_LT(residual_norm(a, x, b) / norm2(b), 1e-9);
}

TEST(Gmres, NonzeroInitialGuess) {
  const CsrMatrix a = testing::grid_laplacian(6, 6);
  const MatrixOperator op(a);
  Rng rng(11);
  std::vector<value_t> xs(a.rows);
  for (auto& v : xs) v = rng.uniform(-1, 1);
  std::vector<value_t> b(a.rows);
  spmv(a, xs, b);
  std::vector<value_t> x = xs;  // start at the exact solution
  const GmresResult r = gmres(op, nullptr, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

// Krylov space closes at the first step (A v0 = d1 v0 exactly for b = e1 on
// a diagonal matrix): the happy-breakdown path must still return the exact
// solution.
TEST(Gmres, HappyBreakdownReturnsExactSolution) {
  const CsrMatrix a = testing::from_dense({{4, 0, 0}, {0, 2, 0}, {0, 0, 8}});
  const MatrixOperator op(a);
  std::vector<value_t> b{12, 0, 0}, x(3, 0.0);
  const GmresResult r = gmres(op, nullptr, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 0.0, 1e-14);
  EXPECT_NEAR(x[2], 0.0, 1e-14);
}

// Regression: singular operator with b in its null direction. A v0 is
// exactly 0, so h[1][0] = 0 with a singular Hessenberg column; the Givens
// residual |g[k+1]| collapses to 0 even though nothing was solved. The
// pre-fix code trusted it and returned converged = true with x = 0.
TEST(Gmres, HappyBreakdownOnSingularOperatorDoesNotClaimConvergence) {
  const CsrMatrix a = testing::from_dense({{1, 0, 0}, {0, 1, 0}, {0, 0, 0}});
  const MatrixOperator op(a);
  std::vector<value_t> b{0, 0, 1}, x(3, 0.0);
  KrylovOptions opt;
  opt.max_iterations = 50;
  const GmresResult r = gmres(op, nullptr, b, x, opt);
  EXPECT_FALSE(r.converged);
  // The reported residual must be the true one (‖b − Ax‖/‖b‖ = 1), not the
  // collapsed Givens value.
  EXPECT_NEAR(r.relative_residual, 1.0, 1e-12);
  for (value_t v : x) EXPECT_TRUE(std::isfinite(v));
}

// Mixed case: the reachable components must still be solved exactly when
// the operator is singular in an untouched direction.
TEST(Gmres, SingularOperatorSolvesReachableComponents) {
  const CsrMatrix a = testing::from_dense({{2, 1, 0}, {1, 3, 0}, {0, 0, 0}});
  const MatrixOperator op(a);
  std::vector<value_t> b{1, 2, 0}, x(3, 0.0);
  const GmresResult r = gmres(op, nullptr, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(residual_norm(a, x, b) / norm2(b), 1e-10);
}

TEST(Gmres, WorkspaceReuseIsAllocationFreeAndBitwiseStable) {
  const CsrMatrix a = testing::grid_laplacian(9, 9);
  const MatrixOperator op(a);
  Rng rng(17);
  std::vector<value_t> b(a.rows);
  for (auto& v : b) v = rng.uniform(-1, 1);

  GmresWorkspace ws;
  std::vector<value_t> x1(a.rows, 0.0), x2(a.rows, 0.0), x0(a.rows, 0.0);
  KrylovOptions opt;
  opt.restart = 25;
  const GmresResult r0 = gmres(op, nullptr, b, x0, opt);  // no workspace
  const GmresResult r1 = gmres(op, nullptr, b, x1, opt, &ws);
  const long long allocs_after_first = ws.allocations;
  const GmresResult r2 = gmres(op, nullptr, b, x2, opt, &ws);
  EXPECT_TRUE(r1.converged);
  // Same inputs, same workspace → bitwise-identical trajectory; the
  // workspace-free path matches too.
  EXPECT_EQ(x1, x2);
  EXPECT_EQ(x1, x0);
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(r1.iterations, r0.iterations);
  // Second solve reuses every buffer.
  EXPECT_EQ(ws.allocations, allocs_after_first);
}

/// Counts its applies and whether any of them was given an exactly zero
/// vector (which the Krylov solvers promise never to do).
class CountingOperator final : public LinearOperator {
 public:
  explicit CountingOperator(const CsrMatrix& a) : op_(a) {}
  [[nodiscard]] index_t size() const override { return op_.size(); }
  void apply(std::span<const value_t> x, std::span<value_t> y) const override {
    ++applies;
    zero_inputs += is_zero(x) ? 1 : 0;
    op_.apply(x, y);
  }
  mutable int applies = 0;
  mutable int zero_inputs = 0;

 private:
  MatrixOperator op_;
};

TEST(Gmres, ZeroInitialGuessSkipsTheResidualApply) {
  const CsrMatrix a = testing::grid_laplacian(8, 8);
  Rng rng(41);
  std::vector<value_t> b(a.rows), x0(a.rows);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (auto& v : x0) v = rng.uniform(-1, 1);
  KrylovOptions opt;
  opt.restart = 80;  // one cycle: no restart residual, no final check

  const CountingOperator zero_op(a);
  std::vector<value_t> x(a.rows, 0.0);
  const GmresResult rz = gmres(zero_op, nullptr, b, x, opt);
  ASSERT_TRUE(rz.converged);
  EXPECT_EQ(zero_op.applies, rz.iterations);
  EXPECT_EQ(zero_op.zero_inputs, 0);

  const CountingOperator guess_op(a);
  std::vector<value_t> xg = x0;
  const GmresResult rg = gmres(guess_op, nullptr, b, xg, opt);
  ASSERT_TRUE(rg.converged);
  EXPECT_EQ(guess_op.applies, rg.iterations + 1);

  // −0.0 counts as zero, and the iterate is the one a +0.0 start gives.
  const CountingOperator neg_op(a);
  std::vector<value_t> xn(a.rows, -0.0);
  const GmresResult rn = gmres(neg_op, nullptr, b, xn, opt);
  EXPECT_EQ(neg_op.applies, rn.iterations);
  EXPECT_EQ(rn.iterations, rz.iterations);
  EXPECT_EQ(xn, x);
}

TEST(Bicgstab, ZeroInitialGuessSkipsTheResidualApply) {
  // A = 2I: one iteration (one apply, then the s-check exits) and the final
  // true-residual apply; a nonzero guess adds the initial residual apply.
  const CsrMatrix a = testing::from_dense({{2, 0, 0}, {0, 2, 0}, {0, 0, 2}});
  const std::vector<value_t> b{1, -2, 3};

  const CountingOperator zero_op(a);
  std::vector<value_t> x(3, 0.0);
  const BicgstabResult rz = bicgstab(zero_op, nullptr, b, x);
  ASSERT_TRUE(rz.converged);
  EXPECT_EQ(rz.iterations, 1);
  EXPECT_EQ(zero_op.applies, 2);
  EXPECT_EQ(zero_op.zero_inputs, 0);

  const CountingOperator guess_op(a);
  std::vector<value_t> xg{0.25, 0.5, -1.0};
  const BicgstabResult rg = bicgstab(guess_op, nullptr, b, xg);
  ASSERT_TRUE(rg.converged);
  EXPECT_EQ(rg.iterations, 1);
  EXPECT_EQ(guess_op.applies, 3);
}

TEST(Bicgstab, SolvesLaplacian) {
  const CsrMatrix a = testing::grid_laplacian(10, 10);
  const MatrixOperator op(a);
  Rng rng(23);
  std::vector<value_t> b(a.rows), x(a.rows, 0.0);
  for (auto& v : b) v = rng.uniform(-1, 1);
  KrylovOptions opt;
  opt.rel_tolerance = 1e-10;
  const BicgstabResult r = bicgstab(op, nullptr, b, x, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.breakdown);
  EXPECT_LT(residual_norm(a, x, b) / norm2(b), 1e-8);
}

// Regression: a near-cancelling r0·v makes α overflow, after which the
// pre-fix recurrence pushed Inf/NaN through ω, x and the reported residual.
// The guarded solver must detect the breakdown and hand back the last
// finite iterate instead.
TEST(Bicgstab, OverflowBreakdownReturnsFiniteIterate) {
  const CsrMatrix a = testing::from_dense(
      {{1, 0, 0}, {0, -1, 0}, {0, 0, 1e-100}});
  const MatrixOperator op(a);
  // r0·(A r0) = 1 − 1 + 1e-300: tiny but nonzero, so the exact-zero guard
  // of the old code does not trigger — α ≈ 2e300 overflows t·t instead.
  std::vector<value_t> b{1, 1, 1e-100}, x(3, 0.0);
  KrylovOptions opt;
  opt.max_iterations = 50;
  const BicgstabResult r = bicgstab(op, nullptr, b, x, opt);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
  EXPECT_TRUE(std::isfinite(r.relative_residual));
  for (value_t v : x) EXPECT_TRUE(std::isfinite(v));
}

// Stagnation: r0 ⊥ A-conjugate directions from the start (skew-symmetric
// action), ρ/ω hit exact zero. The solver must stop with a finite,
// non-converged result rather than dividing by zero.
TEST(Bicgstab, StagnationBreakdownIsFiniteAndNotConverged) {
  const CsrMatrix a = testing::from_dense({{0, 1}, {-1, 0}});
  const MatrixOperator op(a);
  std::vector<value_t> b{1, 1}, x(2, 0.0);
  KrylovOptions opt;
  opt.max_iterations = 20;
  const BicgstabResult r = bicgstab(op, nullptr, b, x, opt);
  EXPECT_TRUE(std::isfinite(r.relative_residual));
  for (value_t v : x) EXPECT_TRUE(std::isfinite(v));
  EXPECT_TRUE(r.breakdown || !r.converged);
}

TEST(Bicgstab, WorkspaceReuseIsAllocationFree) {
  const CsrMatrix a = testing::grid_laplacian(8, 8);
  const MatrixOperator op(a);
  Rng rng(29);
  std::vector<value_t> b(a.rows);
  for (auto& v : b) v = rng.uniform(-1, 1);
  BicgstabWorkspace ws;
  std::vector<value_t> x1(a.rows, 0.0), x2(a.rows, 0.0);
  KrylovOptions opt;
  opt.rel_tolerance = 1e-10;
  const BicgstabResult r1 = bicgstab(op, nullptr, b, x1, opt, &ws);
  const long long allocs_after_first = ws.allocations;
  const BicgstabResult r2 = bicgstab(op, nullptr, b, x2, opt, &ws);
  EXPECT_TRUE(r1.converged);
  EXPECT_EQ(x1, x2);
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(ws.allocations, allocs_after_first);
}

TEST(Preconditioner, ApplySolvesSystem) {
  Rng rng(13);
  const CsrMatrix a = testing::random_pattern_symmetric(25, 0.25, rng);
  const SchurPreconditioner p(a);
  std::vector<value_t> b(25), x(25), scratch;
  for (auto& v : b) v = rng.uniform(-1, 1);
  PrecondView(p, scratch).apply(b, x);
  EXPECT_LT(residual_norm(a, x, b), 1e-9);
  EXPECT_GT(p.factor_nnz(), a.rows);
}

}  // namespace
}  // namespace pdslin
