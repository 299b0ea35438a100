// Differential-harness tests (ISSUE 5): the dense oracle itself, the
// invariant checkers (positive AND negative — every checker must fire on a
// corrupted input), the differential runner over the config matrix, the
// case minimizer, artifact round-trips, the committed regression corpus
// (Corpus.*), oracle comparisons for the iterative layer, and serve
// fingerprint/edge-case properties.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <vector>

#include "check/artifact.hpp"
#include "check/dense_oracle.hpp"
#include "check/differential.hpp"
#include "check/fault.hpp"
#include "check/generators.hpp"
#include "check/invariants.hpp"
#include "check/minimize.hpp"
#include "direct/lu.hpp"
#include "iterative/bicgstab.hpp"
#include "iterative/gmres.hpp"
#include "iterative/operators.hpp"
#include "serve/service.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace pdslin {
namespace {

using namespace pdslin::check;

std::vector<value_t> random_vec(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

// ---------------------------------------------------------------- DenseOracle

TEST(DenseOracle, LuReconstructsPA) {
  Rng rng(7);
  const CsrMatrix a = testing::random_sparse(24, 24, 0.3, rng, 2.0);
  const DenseMatrix ad = dense_from_csr(a);
  const DenseLu f = dense_lu(ad);
  ASSERT_FALSE(f.singular);
  // Rebuild P·A from the packed factors and compare entrywise.
  for (index_t i = 0; i < f.n; ++i) {
    for (index_t j = 0; j < f.n; ++j) {
      value_t lu = 0.0;
      for (index_t k = 0; k <= std::min(i, j); ++k) {
        const value_t lik = k == i ? 1.0 : f.lu.at(i, k);
        lu += lik * (k <= j ? f.lu.at(k, j) : 0.0);
      }
      EXPECT_NEAR(lu, ad.at(f.perm[i], j), 1e-10) << i << "," << j;
    }
  }
}

TEST(DenseOracle, LuSolveRecoversKnownSolution) {
  Rng rng(11);
  const CsrMatrix a = testing::random_sparse(30, 30, 0.25, rng, 3.0);
  const std::vector<value_t> x_star = random_vec(30, 99);
  std::vector<value_t> b(30, 0.0);
  spmv(a, x_star, b);
  std::vector<value_t> x(30, 0.0);
  ASSERT_TRUE(dense_solve(dense_from_csr(a), b, x));
  for (index_t i = 0; i < 30; ++i) EXPECT_NEAR(x[i], x_star[i], 1e-9);
}

TEST(DenseOracle, LuSolveMultiRhs) {
  Rng rng(13);
  const CsrMatrix a = testing::random_sparse(16, 16, 0.4, rng, 3.0);
  const index_t nrhs = 3;
  const std::vector<value_t> x_star = random_vec(16 * nrhs, 5);
  std::vector<value_t> b(16 * nrhs, 0.0);
  for (index_t c = 0; c < nrhs; ++c) {
    spmv(a, std::span(x_star).subspan(c * 16, 16),
         std::span(b).subspan(c * 16, 16));
  }
  std::vector<value_t> x(16 * nrhs, 0.0);
  ASSERT_TRUE(dense_solve(dense_from_csr(a), b, x, nrhs));
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_star[i], 1e-9);
}

TEST(DenseOracle, LuFlagsSingularMatrix) {
  DenseMatrix a(3, 3);
  a.at(0, 0) = 1.0;
  a.at(1, 1) = 1.0;  // column 2 identically zero
  const DenseLu f = dense_lu(a);
  EXPECT_TRUE(f.singular);
  EXPECT_EQ(f.condition_estimate(),
            std::numeric_limits<double>::infinity());
}

TEST(DenseOracle, ConditionEstimateSeparatesHealthyFromNearSingular) {
  DenseMatrix id(4, 4);
  for (index_t i = 0; i < 4; ++i) id.at(i, i) = 1.0;
  EXPECT_NEAR(dense_lu(id).condition_estimate(), 1.0, 1e-12);

  DenseMatrix bad = id;
  bad.at(3, 3) = 1e-12;
  EXPECT_GT(dense_lu(bad).condition_estimate(), 1e10);
}

TEST(DenseOracle, SchurMatchesDirectElimination) {
  // Dense S = C − F D⁻¹ E computed two ways: dense_schur over the pipeline
  // partition vs an independent dense computation from the permuted blocks.
  CaseSpec spec;
  spec.family = Family::RandomDiagDom;
  spec.n = 48;
  spec.seed = 31;
  spec.num_subdomains = 2;
  const GeneratedProblem prob = build_case(spec);
  SchurSolver solver(prob.a, solver_options_for(spec));
  solver.setup();
  const DbbdPartition& p = solver.partition();
  DenseMatrix s;
  ASSERT_TRUE(dense_schur(prob.a, p, s));

  // Independent path: invert the full permuted leading block.
  const index_t n = p.n;
  const index_t sep0 = p.domain_offset[p.num_parts];
  const index_t ns = n - sep0;
  ASSERT_GT(ns, 0);
  DenseMatrix ap(n, n);
  const DenseMatrix ad = dense_from_csr(prob.a);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      ap.at(i, j) = ad.at(p.perm[i], p.perm[j]);
    }
  }
  // S_ref = C − B21 · A11⁻¹ · B12 column by column.
  DenseMatrix a11(sep0, sep0), s_ref(ns, ns);
  for (index_t i = 0; i < sep0; ++i) {
    for (index_t j = 0; j < sep0; ++j) a11.at(i, j) = ap.at(i, j);
  }
  const DenseLu f11 = dense_lu(a11);
  ASSERT_FALSE(f11.singular);
  std::vector<value_t> col(sep0), z(sep0);
  for (index_t j = 0; j < ns; ++j) {
    for (index_t i = 0; i < sep0; ++i) col[i] = ap.at(i, sep0 + j);
    dense_lu_solve(f11, col, z);
    for (index_t i = 0; i < ns; ++i) {
      value_t acc = 0.0;
      for (index_t k = 0; k < sep0; ++k) acc += ap.at(sep0 + i, k) * z[k];
      s_ref.at(i, j) = ap.at(sep0 + i, sep0 + j) - acc;
    }
  }
  EXPECT_LT(max_abs_diff(s, s_ref), 1e-8);
}

TEST(DenseOracle, SchurRefusesSingularInteriorBlock) {
  // Diagonal matrix with one zero interior pivot: D_0 singular.
  CaseSpec spec;
  spec.family = Family::Grid;
  spec.n = 25;
  spec.seed = 3;
  spec.num_subdomains = 2;
  const GeneratedProblem prob = build_case(spec);
  SchurSolver solver(prob.a, solver_options_for(spec));
  solver.setup();
  const DbbdPartition& p = solver.partition();
  ASSERT_GT(p.domain_size(0), 0);

  CsrMatrix broken = prob.a;
  // Zero out the row/column of the first interior unknown of block 0.
  const index_t dead = p.perm[p.domain_offset[0]];
  for (index_t i = 0; i < broken.rows; ++i) {
    for (index_t q = broken.row_ptr[i]; q < broken.row_ptr[i + 1]; ++q) {
      if (i == dead || broken.col_idx[q] == dead) broken.values[q] = 0.0;
    }
  }
  DenseMatrix s;
  EXPECT_FALSE(dense_schur(broken, p, s));
  EXPECT_GT(interior_block_condition(broken, p), 1e12);
}

TEST(DenseOracle, ReducedRhsConsistentWithFullSolve) {
  // Solving S y = ĝ must give exactly the separator part of A⁻¹ b.
  CaseSpec spec;
  spec.family = Family::RandomDiagDom;
  spec.n = 40;
  spec.seed = 17;
  spec.num_subdomains = 2;
  const GeneratedProblem prob = build_case(spec);
  SchurSolver solver(prob.a, solver_options_for(spec));
  solver.setup();
  const DbbdPartition& p = solver.partition();
  const index_t n = p.n;
  const index_t sep0 = p.domain_offset[p.num_parts];
  const index_t ns = n - sep0;
  ASSERT_GT(ns, 0);

  const std::vector<value_t> b = random_vec(n, 23);
  std::vector<value_t> x(n, 0.0);
  ASSERT_TRUE(dense_solve(dense_from_csr(prob.a), b, x));

  DenseMatrix s;
  std::vector<value_t> ghat;
  ASSERT_TRUE(dense_schur(prob.a, p, s));
  ASSERT_TRUE(dense_reduced_rhs(prob.a, p, b, ghat));
  std::vector<value_t> y(ns, 0.0);
  ASSERT_TRUE(dense_solve(s, ghat, y));
  for (index_t i = 0; i < ns; ++i) {
    EXPECT_NEAR(y[i], x[p.perm[sep0 + i]], 1e-7) << i;
  }
}

TEST(DenseOracle, TrueResidualsVanishForExactSolution) {
  Rng rng(41);
  const CsrMatrix a = testing::random_sparse(20, 20, 0.3, rng, 2.0);
  const std::vector<value_t> x = random_vec(20, 8);
  std::vector<value_t> b(20, 0.0);
  spmv(a, x, b);
  const std::vector<double> res = true_relative_residuals(a, x, b);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_LT(res[0], 1e-14);
}

// ----------------------------------------------------------------- Invariants

SchurSolver factored_solver(const CaseSpec& spec, GeneratedProblem& prob) {
  prob = build_case(spec);
  SchurSolver solver(prob.a, solver_options_for(spec));
  solver.setup(prob.incidence.rows > 0 ? &prob.incidence : nullptr);
  solver.factor();
  return solver;
}

TEST(Invariants, PartitionCheckerAcceptsPipelinePartition) {
  CaseSpec spec;
  spec.family = Family::Grid;
  spec.n = 64;
  spec.seed = 2;
  GeneratedProblem prob;
  const SchurSolver solver = factored_solver(spec, prob);
  CheckReport rep;
  check_partition(solver.matrix(), solver.partition(), rep);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(Invariants, PartitionCheckerCatchesCrossCoupling) {
  CaseSpec spec;
  spec.family = Family::Grid;
  spec.n = 64;
  spec.seed = 2;
  GeneratedProblem prob;
  const SchurSolver solver = factored_solver(spec, prob);
  DbbdPartition p = solver.partition();
  ASSERT_GE(p.num_parts, 2);
  // Relabel a separator unknown into subdomain 0: its couplings to block 1
  // become forbidden interior-interior entries (and the counts go stale).
  const index_t sep0 = p.domain_offset[p.num_parts];
  ASSERT_LT(sep0, p.n);
  p.part[p.perm[sep0]] = 0;
  CheckReport rep;
  check_partition(solver.matrix(), p, rep);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has("partition."));
}

TEST(Invariants, LuResidualCheckerCatchesCorruptedFactor) {
  Rng rng(5);
  const CsrMatrix a = testing::random_sparse(20, 20, 0.3, rng, 3.0);
  const CscMatrix ac = csr_to_csc(a);
  LuFactors f = lu_factorize(ac);
  CheckReport clean;
  check_lu_residual(ac, f, 1e-9, clean);
  EXPECT_TRUE(clean.ok()) << clean.summary();

  ASSERT_FALSE(f.upper.values.empty());
  f.upper.values.back() += 0.5;  // corrupt one U entry
  CheckReport rep;
  check_lu_residual(ac, f, 1e-9, rep);
  EXPECT_TRUE(rep.has("lu.residual"));
}

TEST(Invariants, SolverCheckersAcceptExactAssembly) {
  CaseSpec spec;
  spec.family = Family::PatternSym;
  spec.n = 72;
  spec.seed = 9;
  spec.exact_assembly = true;
  GeneratedProblem prob;
  const SchurSolver solver = factored_solver(spec, prob);
  CheckReport rep;
  check_solver(solver, SchurCheckOptions{}, rep);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(Invariants, SchurCheckerCatchesInjectedGatherBug) {
  CaseSpec spec;
  spec.family = Family::Grid;
  spec.n = 64;
  spec.seed = 4;
  spec.exact_assembly = true;
  FaultGuard guard(Fault::SchurGatherOffByOne);
  GeneratedProblem prob;
  const SchurSolver solver = factored_solver(spec, prob);
  CheckReport rep;
  check_schur_consistency(solver, SchurCheckOptions{}, rep);
  EXPECT_TRUE(rep.has("schur.mismatch")) << rep.summary();
}

TEST(Invariants, InjectedDropBugCannotPassTheGate) {
  // SchurDropLastEntry guts S̃ so thoroughly that LU(S̃) usually refuses the
  // factorization outright; whether the pipeline throws (unexpected_throw)
  // or limps through (schur.mismatch), the differential gate must fail.
  FaultGuard guard(Fault::SchurDropLastEntry);
  CaseSpec spec;
  spec.family = Family::Grid;
  spec.n = 64;
  spec.seed = 4;
  spec.exact_assembly = true;
  const DifferentialResult r = run_differential(spec);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.report.has("pipeline.") || r.report.has("schur."))
      << r.report.summary();
}

TEST(Invariants, SolutionCheckerCatchesDishonestResidual) {
  Rng rng(19);
  const CsrMatrix a = testing::random_sparse(12, 12, 0.4, rng, 3.0);
  const std::vector<value_t> b = random_vec(12, 1);
  std::vector<value_t> x(12, 0.0);  // x = 0 is NOT the solution
  std::vector<GmresResult> results(1);
  results[0].converged = true;
  results[0].relative_residual = 1e-14;  // fabricated claim
  CheckReport rep;
  check_solution(a, x, b, results, 1, SolutionCheckOptions{}, rep);
  EXPECT_TRUE(rep.has("solution.residual_mismatch")) << rep.summary();
}

TEST(Invariants, SolutionCheckerIgnoresNonConvergedColumns) {
  Rng rng(19);
  const CsrMatrix a = testing::random_sparse(12, 12, 0.4, rng, 3.0);
  const std::vector<value_t> b = random_vec(12, 1);
  std::vector<value_t> x(12, 0.0);
  std::vector<GmresResult> results(1);
  results[0].converged = false;  // no claim, no judgement
  results[0].relative_residual = 1.0;
  CheckReport rep;
  check_solution(a, x, b, results, 1, SolutionCheckOptions{}, rep);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(Invariants, ReportPrefixAndSummary) {
  CheckReport rep;
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.summary(), "");
  rep.add("stage.detail", "what went wrong", 2.5);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has("stage."));
  EXPECT_FALSE(rep.has("other."));
  EXPECT_NE(rep.summary().find("what went wrong"), std::string::npos);
}

// --------------------------------------------------------------- Differential

TEST(Differential, CleanOnWellConditionedGrid) {
  CaseSpec spec;
  spec.family = Family::Grid;
  spec.n = 100;
  spec.seed = 12;
  spec.nrhs = 2;
  const DifferentialResult r = run_differential(spec);
  EXPECT_TRUE(r.ok()) << r.report.summary();
  EXPECT_TRUE(r.all_converged);
}

TEST(Differential, CleanAcrossConfigAxes) {
  // One spin around every config axis on one healthy problem.
  for (const bool exact : {true, false}) {
    for (const auto krylov : {KrylovMethod::Gmres, KrylovMethod::Bicgstab}) {
      CaseSpec spec;
      spec.family = Family::RandomDiagDom;
      spec.n = 80;
      spec.seed = 77;
      spec.partitioning =
          exact ? PartitionMethod::NGD : PartitionMethod::RHB;
      spec.krylov = krylov;
      spec.exact_assembly = exact;
      spec.threads = 2;
      const DifferentialResult r = run_differential(spec);
      EXPECT_TRUE(r.ok()) << spec.to_string() << "\n" << r.report.summary();
    }
  }
}

TEST(Differential, CleanThroughServePath) {
  CaseSpec spec;
  spec.family = Family::Grid;
  spec.n = 81;
  spec.seed = 6;
  spec.serve = true;
  const DifferentialResult r = run_differential(spec);
  EXPECT_TRUE(r.ok()) << r.report.summary();
}

TEST(Differential, InjectedFaultFailsTheGate) {
  FaultGuard guard(Fault::SchurGatherOffByOne);
  CaseSpec spec;
  spec.family = Family::Grid;
  spec.n = 100;
  spec.seed = 12;
  const DifferentialResult r = run_differential(spec);
  EXPECT_FALSE(r.ok());
}

TEST(Differential, SampleCaseIsDeterministic) {
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(sample_case(42, i).to_string(), sample_case(42, i).to_string());
  }
  // Different indices explore different specs.
  EXPECT_NE(sample_case(42, 0).to_string(), sample_case(42, 1).to_string());
}

TEST(Differential, LuKernelAxisCyclesScalarPanelPanel) {
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(sample_case(42, i).lu_kernel,
              i % 3 == 0 ? LuKernelAxis::Scalar : LuKernelAxis::Panel)
        << "case " << i;
  }
}

TEST(Differential, BuildCaseIsDeterministic) {
  const CaseSpec spec = sample_case(7, 3);
  const GeneratedProblem p1 = build_case(spec);
  const GeneratedProblem p2 = build_case(spec);
  ASSERT_EQ(p1.a.nnz(), p2.a.nnz());
  EXPECT_EQ(std::memcmp(p1.a.values.data(), p2.a.values.data(),
                        p1.a.values.size() * sizeof(value_t)),
            0);
}

// ------------------------------------------------------------------- Artifact

TEST(Artifact, SpecRoundTripsThroughJson) {
  CaseSpec spec;
  spec.family = Family::NearSingular;
  spec.n = 37;
  spec.seed = 123456789;
  spec.density = 0.125;
  spec.partitioning = PartitionMethod::RHB;
  spec.num_subdomains = 8;
  spec.threads = 3;
  spec.inner_threads = 2;
  spec.nrhs = 4;
  spec.krylov = KrylovMethod::Bicgstab;
  spec.exact_assembly = false;
  spec.serve = true;
  spec.partition_engine = PartitionEngineAxis::BudgetZero;
  const std::string json = artifact_to_json(spec);
  const CaseSpec back = artifact_from_json(json);
  EXPECT_EQ(back.to_string(), spec.to_string());
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_DOUBLE_EQ(back.density, spec.density);
}

TEST(Artifact, MalformedDocumentThrows) {
  EXPECT_THROW(artifact_from_json("{}"), Error);
  EXPECT_THROW(artifact_from_json("not json at all"), Error);
  EXPECT_THROW(
      artifact_from_json(R"({"artifact": "something-else", "version": 1})"),
      Error);
  // Artifacts from older campaigns may name the lu-fp32 lane; they must be
  // rejected as an unknown lu_kernel, not replayed on some other kernel.
  std::string fp32 = artifact_to_json(CaseSpec{});
  const std::size_t at = fp32.find("\"lu-panel\"");
  ASSERT_NE(at, std::string::npos);
  fp32.replace(at, 10, "\"lu-fp32\"");
  EXPECT_THROW(artifact_from_json(fp32), Error);
}

// ------------------------------------------------------------------- Minimize

TEST(Minimize, ShrinksInjectedBugToSmallReproducer) {
  FaultGuard guard(Fault::SchurGatherOffByOne);
  CaseSpec spec;
  spec.family = Family::Grid;
  spec.n = 144;
  spec.seed = 29;
  spec.nrhs = 3;
  spec.threads = 2;
  spec.num_subdomains = 8;
  ASSERT_FALSE(run_differential(spec).ok());
  const MinimizeResult min = minimize_case(spec);
  EXPECT_LE(min.spec.n, 64);  // the ISSUE's acceptance bound
  EXPECT_EQ(min.spec.nrhs, 1);
  EXPECT_EQ(min.spec.threads, 1u);
  // The minimal spec still fails with the same primary checker.
  const DifferentialResult r = run_differential(min.spec);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.report.has(min.primary)) << min.primary;
}

TEST(Minimize, RefusesPassingCase) {
  CaseSpec spec;
  spec.family = Family::Grid;
  spec.n = 49;
  spec.seed = 1;
  EXPECT_THROW(minimize_case(spec), Error);
}

// --------------------------------------------------------------------- Corpus

TEST(Corpus, CommittedArtifactsReplayClean) {
  // Every artifact the fuzzer ever minimized is a permanent regression
  // test: replay each committed spec and require a clean differential run.
  const std::filesystem::path dir = PDSLIN_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    const CaseSpec spec = load_artifact(entry.path().string());
    const DifferentialResult r = run_differential(spec);
    EXPECT_TRUE(r.ok()) << entry.path().filename() << " → "
                        << spec.to_string() << "\n" << r.report.summary();
    ++replayed;
  }
  EXPECT_GE(replayed, 2) << "corpus unexpectedly empty";
}

// ----------------------------------------------------------- IterativeOracle

TEST(IterativeOracle, GmresMatchesDenseSolve) {
  Rng rng(101);
  const CsrMatrix a = testing::random_sparse(60, 60, 0.15, rng, 4.0);
  const std::vector<value_t> b = random_vec(60, 3);
  std::vector<value_t> x_oracle(60, 0.0);
  ASSERT_TRUE(dense_solve(dense_from_csr(a), b, x_oracle));

  MatrixOperator op(a);
  std::vector<value_t> x(60, 0.0);
  const GmresResult r = gmres(op, nullptr, b, x, GmresOptions{});
  ASSERT_TRUE(r.converged);
  for (index_t i = 0; i < 60; ++i) EXPECT_NEAR(x[i], x_oracle[i], 1e-8);
  // Reported residual must agree with the recomputed true residual.
  const std::vector<double> true_rel = true_relative_residuals(a, x, b);
  EXPECT_LE(true_rel[0], std::max(1e3 * r.relative_residual, 1e-8));
}

TEST(IterativeOracle, BicgstabMatchesDenseSolve) {
  Rng rng(103);
  const CsrMatrix a = testing::random_sparse(60, 60, 0.15, rng, 4.0);
  const std::vector<value_t> b = random_vec(60, 5);
  std::vector<value_t> x_oracle(60, 0.0);
  ASSERT_TRUE(dense_solve(dense_from_csr(a), b, x_oracle));

  MatrixOperator op(a);
  std::vector<value_t> x(60, 0.0);
  BicgstabOptions opt;
  opt.rel_tolerance = 1e-10;
  const BicgstabResult r = bicgstab(op, nullptr, b, x, opt);
  ASSERT_TRUE(r.converged);
  for (index_t i = 0; i < 60; ++i) EXPECT_NEAR(x[i], x_oracle[i], 1e-6);
  const std::vector<double> true_rel = true_relative_residuals(a, x, b);
  EXPECT_LE(true_rel[0], std::max(1e3 * r.relative_residual, 1e-8));
}

TEST(IterativeOracle, HybridSolverReportsTrueFullSystemResidual) {
  // The solver's reported residual is the FULL-system true residual, not
  // the Schur-system Krylov residual (the residual-honesty regression of
  // tests/corpus/residual-honesty-*.json).
  for (const auto krylov : {KrylovMethod::Gmres, KrylovMethod::Bicgstab}) {
    CaseSpec spec;
    spec.family = Family::RandomDiagDom;
    spec.n = 90;
    spec.seed = 55;
    spec.krylov = krylov;
    const GeneratedProblem prob = build_case(spec);
    SchurSolver solver(prob.a, solver_options_for(spec));
    solver.setup();
    solver.factor();
    const std::vector<value_t> b = random_vec(prob.a.rows, 66);
    std::vector<value_t> x(prob.a.rows, 0.0);
    const GmresResult r = solver.solve(b, x);
    ASSERT_TRUE(r.converged);
    const std::vector<double> true_rel =
        true_relative_residuals(prob.a, x, b);
    EXPECT_NEAR(r.relative_residual, true_rel[0],
                1e-3 * std::max(true_rel[0], 1e-14));
  }
}

TEST(IterativeOracle, HybridMultiRhsMatchesDenseOracle) {
  CaseSpec spec;
  spec.family = Family::Grid;
  spec.n = 100;
  spec.seed = 21;
  spec.nrhs = 3;
  const GeneratedProblem prob = build_case(spec);
  const index_t n = prob.a.rows;
  SchurSolver solver(prob.a, solver_options_for(spec));
  solver.setup();
  solver.factor();
  const std::vector<value_t> b = random_vec(n * spec.nrhs, 77);
  std::vector<value_t> x(n * spec.nrhs, 0.0);
  const std::vector<GmresResult> rs = solver.solve_multi(b, x, spec.nrhs);
  std::vector<value_t> x_oracle(n * spec.nrhs, 0.0);
  ASSERT_TRUE(dense_solve(dense_from_csr(prob.a), b, x_oracle, spec.nrhs));
  for (const GmresResult& r : rs) EXPECT_TRUE(r.converged);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_oracle[i], 1e-6);
  }
  CheckReport rep;
  check_solution(prob.a, x, b, rs, spec.nrhs, SolutionCheckOptions{}, rep);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

// -------------------------------------------------------------- ServeProperty

TEST(ServeProperty, ValuePerturbationAlwaysFlipsNumericHash) {
  // Property over many random matrices and perturbation sites: any single
  // value change flips the numeric half and never the structural half.
  Rng rng(211);
  for (int round = 0; round < 20; ++round) {
    CsrMatrix a = testing::random_sparse(24, 24, 0.2, rng, 2.0);
    const serve::Fingerprint before = serve::fingerprint_of(a);
    const std::size_t site =
        static_cast<std::size_t>(rng.uniform(0.0, 1.0) * a.values.size()) %
        a.values.size();
    a.values[site] += 1e-9;
    const serve::Fingerprint after = serve::fingerprint_of(a);
    EXPECT_EQ(before.structure, after.structure) << round;
    EXPECT_NE(before.values, after.values) << round;
  }
}

TEST(ServeProperty, SolvePhaseKnobsNeverChangeSetupHash) {
  SolverOptions base;
  base.num_subdomains = 4;
  const std::uint64_t h0 = serve::setup_options_hash(base);

  SolverOptions solve_only = base;
  solve_only.krylov = KrylovMethod::Bicgstab;
  solve_only.gmres.rel_tolerance = 1e-4;
  solve_only.gmres.restart = 10;
  solve_only.bicgstab.max_iterations = 3;
  EXPECT_EQ(serve::setup_options_hash(solve_only), h0);

  SolverOptions setup_changed = base;
  setup_changed.num_subdomains = 8;
  EXPECT_NE(serve::setup_options_hash(setup_changed), h0);
  SolverOptions drop_changed = base;
  drop_changed.assembly.drop_s = 0.123;
  EXPECT_NE(serve::setup_options_hash(drop_changed), h0);
}

TEST(ServeProperty, DeadlineAlreadyExpiredAtEnqueueTimesOut) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  serve::SolveService service(cfg);
  const auto a = std::make_shared<const CsrMatrix>(
      testing::grid_laplacian(8, 8));
  serve::SolveRequest req;
  req.a = a;
  req.opt.num_subdomains = 2;
  req.b = random_vec(a->rows, 1);
  req.timeout_seconds = 1e-12;  // expired before the dispatcher can run
  const serve::SolveResponse resp = service.solve(req);
  EXPECT_EQ(resp.status, serve::ServeStatus::Timeout);
  // The service keeps draining: a sane follow-up request succeeds.
  serve::SolveRequest ok = req;
  ok.timeout_seconds = 0.0;
  EXPECT_EQ(service.solve(ok).status, serve::ServeStatus::Ok);
}

TEST(ServeProperty, MaxWaitZeroTakesOnlyQueuedRequests) {
  // Pure queue surgery: with max_wait = 0 the batcher must take exactly the
  // same-key requests queued now and keep other-key order intact.
  const serve::SetupKey k1{serve::Fingerprint{1, 1}, 7};
  const serve::SetupKey k2{serve::Fingerprint{2, 2}, 7};
  std::deque<serve::PendingRequest> queue;
  auto push = [&](const serve::SetupKey& k, index_t nrhs) {
    serve::PendingRequest pr;
    pr.key = k;
    pr.req.nrhs = nrhs;
    pr.enqueued = std::chrono::steady_clock::now();
    queue.push_back(std::move(pr));
  };
  push(k1, 1);
  push(k2, 1);
  push(k1, 2);
  serve::BatcherConfig cfg;
  cfg.max_wait_seconds = 0.0;
  serve::Batch batch = serve::take_batch(queue, cfg);
  EXPECT_EQ(batch.requests.size(), 2u);  // both k1 requests, nothing else
  EXPECT_EQ(batch.total_nrhs(), 3);
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.front().key, k2);
  // max_wait = 0: extending immediately absorbs nothing new.
  EXPECT_EQ(serve::extend_batch(batch, queue, cfg), 0u);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(ServeProperty, CacheSmallerThanOneEntryStillSolves) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache.capacity_bytes = 1;  // no setup can ever fit
  serve::SolveService service(cfg);
  const auto a = std::make_shared<const CsrMatrix>(
      testing::grid_laplacian(8, 8));
  auto make = [&] {
    serve::SolveRequest req;
    req.a = a;
    req.opt.num_subdomains = 2;
    req.b = random_vec(a->rows, 2);
    return req;
  };
  const serve::SolveResponse first = service.solve(make());
  ASSERT_EQ(first.status, serve::ServeStatus::Ok);
  const serve::SolveResponse second = service.solve(make());
  ASSERT_EQ(second.status, serve::ServeStatus::Ok);
  EXPECT_FALSE(second.cache_hit);  // nothing fits, so nothing is reused
  // Uncached repeat still computes the identical answer.
  ASSERT_EQ(first.x.size(), second.x.size());
  EXPECT_EQ(std::memcmp(first.x.data(), second.x.data(),
                        first.x.size() * sizeof(value_t)),
            0);
}

}  // namespace
}  // namespace pdslin
