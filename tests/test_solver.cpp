// End-to-end tests of the PDSLin-style SchurSolver: both partitioners, all
// RHS orderings, repeated solves, and solution accuracy against dense/LU
// oracles on the Table-I analogue matrices.
#include <gtest/gtest.h>

#include <algorithm>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>

#include "check/fault.hpp"
#include "check/invariants.hpp"
#include "core/preconditioner.hpp"
#include "core/schur_solver.hpp"
#include "gen/suite.hpp"
#include "sparse/ops.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace pdslin {
namespace {

std::vector<value_t> random_rhs(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> b(n);
  for (auto& v : b) v = rng.uniform(-1, 1);
  return b;
}

TEST(SchurSolver, PhaseOrderEnforced) {
  const CsrMatrix a = testing::grid_laplacian(10, 10);
  SolverOptions opt;
  opt.num_subdomains = 2;
  SchurSolver solver(a, opt);
  std::vector<value_t> b(a.rows, 1.0), x(a.rows, 0.0);
  EXPECT_THROW(solver.factor(), Error);
  EXPECT_THROW(solver.solve(b, x), Error);
  solver.setup();
  EXPECT_THROW(solver.solve(b, x), Error);
}

TEST(SchurSolver, RejectsNonPowerOfTwoSubdomains) {
  const CsrMatrix a = testing::grid_laplacian(5, 5);
  SolverOptions opt;
  opt.num_subdomains = 3;
  EXPECT_THROW(SchurSolver(a, opt), Error);
}

class SolverEndToEnd
    : public ::testing::TestWithParam<std::tuple<PartitionMethod, index_t>> {};

TEST_P(SolverEndToEnd, SolvesGridLaplacian) {
  const auto [method, k] = GetParam();
  const CsrMatrix a = testing::grid_laplacian(24, 24);
  SolverOptions opt;
  opt.partitioning = method;
  opt.num_subdomains = k;
  opt.seed = 3;
  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();

  const auto b = random_rhs(a.rows, 7);
  std::vector<value_t> x(a.rows, 0.0);
  const GmresResult r = solver.solve(b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(residual_norm(a, x, b) / norm2(b), 1e-8);

  const SolverStats& s = solver.stats();
  EXPECT_EQ(s.schur_dim, solver.partition().separator_size());
  EXPECT_EQ(s.lu_d_seconds.size(), static_cast<std::size_t>(k));
  EXPECT_GT(s.parallel_time_one_level(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndK, SolverEndToEnd,
    ::testing::Combine(::testing::Values(PartitionMethod::NGD,
                                         PartitionMethod::RHB),
                       ::testing::Values<index_t>(2, 4, 8)));

class SolverRhsOrdering : public ::testing::TestWithParam<RhsOrdering> {};

TEST_P(SolverRhsOrdering, AllOrderingsGiveSameSolution) {
  const GeneratedProblem p = make_suite_matrix("dds.linear", 0.04);
  SolverOptions opt;
  opt.num_subdomains = 4;
  opt.assembly.rhs_ordering = GetParam();
  opt.assembly.rhs_block_size = 16;
  opt.seed = 11;
  SchurSolver solver(p.a, opt);
  solver.setup(&p.incidence);
  solver.factor();
  const auto b = random_rhs(p.a.rows, 13);
  std::vector<value_t> x(p.a.rows, 0.0);
  const GmresResult r = solver.solve(b, x);
  EXPECT_TRUE(r.converged) << to_string(GetParam());
  EXPECT_LT(residual_norm(p.a, x, b) / norm2(b), 1e-7) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Orderings, SolverRhsOrdering,
                         ::testing::Values(RhsOrdering::Natural,
                                           RhsOrdering::Postorder,
                                           RhsOrdering::Hypergraph));

class SolverSuiteMatrix : public ::testing::TestWithParam<std::string> {};

TEST_P(SolverSuiteMatrix, ConvergesOnTableIAnalogue) {
  const GeneratedProblem p = make_suite_matrix(GetParam(), 0.06);
  SolverOptions opt;
  opt.num_subdomains = 4;
  opt.partitioning = PartitionMethod::RHB;
  opt.seed = 17;
  SchurSolver solver(p.a, opt);
  solver.setup(p.incidence.rows > 0 ? &p.incidence : nullptr);
  solver.factor();
  const auto b = random_rhs(p.a.rows, 19);
  std::vector<value_t> x(p.a.rows, 0.0);
  const GmresResult r = solver.solve(b, x);
  EXPECT_TRUE(r.converged) << GetParam();
  EXPECT_LT(residual_norm(p.a, x, b) / norm2(b), 1e-6) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllTableI, SolverSuiteMatrix,
                         ::testing::ValuesIn(suite_names()));

TEST(SchurSolver, RepeatedSolvesReuseFactorization) {
  const CsrMatrix a = testing::grid_laplacian(16, 16);
  SolverOptions opt;
  opt.num_subdomains = 4;
  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    const auto b = random_rhs(a.rows, 100 + trial);
    std::vector<value_t> x(a.rows, 0.0);
    EXPECT_TRUE(solver.solve(b, x).converged);
    EXPECT_LT(residual_norm(a, x, b) / norm2(b), 1e-8);
  }
}

TEST(SchurSolver, MatchesDirectSolution) {
  Rng rng(23);
  const GeneratedProblem p = make_suite_matrix("G3_circuit", 0.02);
  SolverOptions opt;
  opt.num_subdomains = 2;
  SchurSolver solver(p.a, opt);
  solver.setup(&p.incidence);
  solver.factor();
  const auto b = random_rhs(p.a.rows, 29);
  std::vector<value_t> x(p.a.rows, 0.0);
  solver.solve(b, x);
  // Direct solve oracle.
  const LuFactors f = lu_factorize(p.a);
  std::vector<value_t> xd(p.a.rows);
  lu_solve(f, b, xd);
  for (index_t i = 0; i < p.a.rows; ++i) EXPECT_NEAR(x[i], xd[i], 1e-6);
}

TEST(SchurSolver, DomainSolveInvertsD) {
  const CsrMatrix a = testing::grid_laplacian(12, 12);
  SolverOptions opt;
  opt.num_subdomains = 2;
  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();
  const Subdomain& sub = solver.subdomains()[0];
  const auto b = random_rhs(sub.d.rows, 31);
  std::vector<value_t> z(sub.d.rows);
  solver.domain_solve(0, b, z);
  EXPECT_LT(residual_norm(sub.d, z, b) / norm2(b), 1e-9);
}

// The operator computes only what F̂_ℓ reads (the forward sweep over the
// reach of Ê_ℓ's rows, the backward sweep over the rows F̂_ℓ needs), yet
// equals C·y − Σ_ℓ F̂_ℓ·D_ℓ⁻¹(Ê_ℓ·y) through the full domain solve bit for
// bit. On the circuit analogue the sweeps skip over half of the factor
// entries (43% needed at this size); y has
// exact zeros of both signs.
TEST(SchurSolver, OperatorApplyEqualsFullDomainSolves) {
  for (const auto& [name, scale] :
       {std::pair<const char*, double>{"G3_circuit", 0.3}, {"tdr190k", 0.15}}) {
    const GeneratedProblem p = make_suite_matrix(name, scale);
    for (const unsigned threads : {1u, 4u}) {
      SolverOptions opt;
      opt.num_subdomains = 8;
      opt.threads = threads;
      SchurSolver solver(p.a, opt);
      solver.setup(&p.incidence);
      solver.factor();
      const index_t ns = solver.partition().separator_size();
      ASSERT_GT(ns, 0);
      std::vector<value_t> y = random_rhs(ns, 83);
      for (index_t i = 0; i < ns; i += 4) y[i] = i % 8 == 0 ? 0.0 : -0.0;

      SchurSolver::SolveContext ctx;
      solver.prepare_context(ctx);
      std::vector<value_t> out(ns);
      solver.apply_schur(y, out, ctx);
      EXPECT_EQ(ctx.applies, 1);

      std::vector<value_t> ref(ns);
      spmv(solver.separator_block(), y, ref);
      for (std::size_t l = 0; l < solver.subdomains().size(); ++l) {
        const Subdomain& sub = solver.subdomains()[l];
        std::vector<value_t> v(sub.e_cols.size()), t(sub.d.rows),
            z(sub.d.rows), r(sub.f_rows.size());
        for (std::size_t c = 0; c < v.size(); ++c) v[c] = y[sub.e_cols[c]];
        spmv(sub.ehat, v, t);
        solver.domain_solve(static_cast<index_t>(l), t, z);
        spmv(sub.fhat, z, r);
        for (std::size_t fr = 0; fr < r.size(); ++fr) {
          ref[sub.f_rows[fr]] -= r[fr];
        }
      }
      EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), ns * sizeof(value_t)))
          << name << " threads=" << threads;
    }
  }
}

// Krylov starts from y = 0 and takes S·0 = +0.0 without applying S: one
// apply per iteration (no restart, no final check at this size).
TEST(SchurSolver, SolveMakesOneApplyPerIteration) {
  const CsrMatrix a = testing::grid_laplacian(16, 16);
  SolverOptions opt;
  opt.num_subdomains = 4;
  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();
  const auto b = random_rhs(a.rows, 89);
  std::vector<value_t> x(a.rows, 0.0);
  SchurSolver::SolveContext ctx;
  const GmresResult r = solver.solve(b, x, ctx);
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.iterations, 0);
  EXPECT_EQ(ctx.applies, r.iterations);
}

TEST(SchurSolver, InvalidRequestThrows) {
  const CsrMatrix a = testing::grid_laplacian(6, 6);
  SolverOptions opt;
  opt.num_subdomains = 2;
  const auto rejects = [](auto&& call, const std::string& what) {
    try {
      call();
      ADD_FAILURE() << "accepted: " << what;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("invalid request: ", 0), 0u)
          << what << ": " << e.what();
    }
  };
  CsrMatrix bad = a;
  bad.col_idx[5] = a.cols;
  rejects([&] { SchurSolver s(bad, opt); }, "column index out of range");
  bad = a;
  std::swap(bad.row_ptr[3], bad.row_ptr[4]);
  rejects([&] { SchurSolver s(bad, opt); }, "swapped row_ptr pair");
  bad = a;
  bad.values[7] = std::numeric_limits<value_t>::quiet_NaN();
  rejects([&] { SchurSolver s(bad, opt); }, "NaN in A");
  // A column stored twice in a row: the LU would keep one entry, spmv and
  // the residual sum both.
  try {
    SchurSolver s(testing::with_split_diagonal(a, 13), opt);
    ADD_FAILURE() << "accepted: a column stored twice";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "invalid request: A stores column 13 twice in row 13");
  }
  // An unsorted row without a repeat is accepted.
  bad = a;
  std::reverse(bad.col_idx.begin() + bad.row_ptr[8],
               bad.col_idx.begin() + bad.row_ptr[9]);
  std::reverse(bad.values.begin() + bad.row_ptr[8],
               bad.values.begin() + bad.row_ptr[9]);
  EXPECT_NO_THROW(SchurSolver s(bad, opt));

  SchurSolver solver(a, opt);
  CsrMatrix wide(1, a.cols + 1);
  wide.row_ptr = {0, 1};
  wide.col_idx = {0};
  rejects([&] { solver.setup(&wide); }, "incidence of the wrong width");
  solver.setup();
  solver.factor();
  std::vector<value_t> b = random_rhs(a.rows, 97), x(a.rows, 0.0);
  b[11] = std::numeric_limits<value_t>::infinity();
  rejects([&] { solver.solve(b, x); }, "infinite b");
}

TEST(SchurSolver, ThreadedFactorMatchesSerial) {
  const CsrMatrix a = testing::grid_laplacian(18, 18);
  SolverOptions serial;
  serial.num_subdomains = 4;
  serial.seed = 37;
  SolverOptions threaded = serial;
  threaded.threads = 3;

  SchurSolver s1(a, serial), s2(a, threaded);
  s1.setup();
  s1.factor();
  s2.setup();
  s2.factor();
  const auto b = random_rhs(a.rows, 41);
  std::vector<value_t> x1(a.rows, 0.0), x2(a.rows, 0.0);
  s1.solve(b, x1);
  s2.solve(b, x2);
  for (index_t i = 0; i < a.rows; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-10);
}

// factor() frees every T̃_ℓ after the gather; memory_bytes() charges what
// the set-up keeps, LU(S̃) by the preconditioner's own memory_bytes(); and
// the Schur check, whose tolerance scale reads max|T̃_ℓ|, still sees the
// planted gather defect.
TEST(SchurSolver, FactorReleasesTTilde) {
  const CsrMatrix a = testing::grid_laplacian(16, 16);
  SolverOptions opt;
  opt.num_subdomains = 4;
  opt.seed = 5;
  opt.assembly.drop_wg = 0.0;
  opt.assembly.drop_s = 0.0;
  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();

  const auto csr = [](const CsrMatrix& m) {
    return (m.row_ptr.size() + m.col_idx.size()) * sizeof(index_t) +
           m.values.size() * sizeof(value_t);
  };
  const auto idx = [](const std::vector<index_t>& v) {
    return v.size() * sizeof(index_t);
  };
  const DbbdPartition& p = solver.partition();
  std::size_t want = csr(a) + idx(p.part) + idx(p.perm) + idx(p.iperm) +
                     idx(p.domain_offset);
  for (index_t l = 0; l < opt.num_subdomains; ++l) {
    const Subdomain& sub = solver.subdomains()[l];
    const SubdomainFactorization& f = solver.factorizations()[l];
    EXPECT_EQ(f.t_tilde.nnz(), 0) << "subdomain " << l;
    EXPECT_TRUE(f.t_tilde.row_ptr.empty()) << "subdomain " << l;
    const CsrMatrix t = assemble_subdomain(sub, opt.assembly).t_tilde;
    ASSERT_GT(t.nnz(), 0);
    double t_max = 0.0;
    for (const value_t v : t.values) t_max = std::max(t_max, std::abs(v));
    EXPECT_EQ(f.t_tilde_max_abs, t_max) << "subdomain " << l;

    want += csr(sub.d) + csr(sub.ehat) + csr(sub.fhat) + idx(sub.interior) +
            idx(sub.e_cols) + idx(sub.f_rows);
    want += f.lu.memory_bytes() + idx(f.colmap) + idx(f.rowmap);
    // The sweep lists: the L positions Ê's rows reach, and the U rows F̂'s
    // columns need, each closed in one ascending pass.
    const index_t nd = f.lu.n;
    const auto closure = [nd](const CscMatrix& tri, std::vector<char> mark) {
      std::size_t count = 0;
      for (index_t k = 0; k < nd; ++k) {
        if (mark[k] == 0) continue;
        ++count;
        for (index_t q = tri.col_ptr[k] + 1; q < tri.col_ptr[k + 1]; ++q) {
          mark[tri.row_idx[q]] = 1;
        }
      }
      return count;
    };
    std::vector<char> mark(nd, 0);
    for (index_t q = 0; q < nd; ++q) mark[q] = sub.ehat.row_nnz(f.rowmap[q]) > 0;
    want += closure(f.lu.lower, mark) * sizeof(index_t);
    std::vector<index_t> position_of(nd);
    for (index_t q = 0; q < nd; ++q) position_of[f.colmap[q]] = q;
    std::fill(mark.begin(), mark.end(), 0);
    for (const index_t c : sub.fhat.col_idx) mark[position_of[c]] = 1;
    want += closure(f.lu.upper_t, mark) * sizeof(index_t);
  }
  want += csr(solver.separator_block()) + csr(solver.schur_tilde());
  want += SchurPreconditioner(solver.schur_tilde(), opt.assembly.lu).memory_bytes();
  EXPECT_EQ(solver.memory_bytes(), want);

  check::CheckReport clean;
  check::check_solver(solver, check::SchurCheckOptions{}, clean);
  EXPECT_TRUE(clean.ok()) << clean.summary();
  check::FaultGuard guard(check::Fault::SchurGatherOffByOne);
  SchurSolver faulty(a, opt);
  faulty.setup();
  faulty.factor();
  check::CheckReport rep;
  check::check_solver(faulty, check::SchurCheckOptions{}, rep);
  EXPECT_TRUE(rep.has("schur.mismatch")) << rep.summary();
}

}  // namespace
}  // namespace pdslin
