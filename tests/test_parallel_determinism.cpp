// Determinism of the subdomain-parallel set-up: factor() at threads 4 must
// return the bits of threads 1 — the schedule only changes which worker
// factors a subdomain, never what is computed — and the blocked multi-RHS
// solve must read cached reach patterns exactly as it recomputes them.
#include <gtest/gtest.h>

#include <numeric>

#include "core/dbbd.hpp"
#include "core/schur_assembly.hpp"
#include "core/schur_solver.hpp"
#include "core/subdomain.hpp"
#include "direct/lu.hpp"
#include "direct/mindeg.hpp"
#include "direct/multirhs.hpp"
#include "gen/grid_fem.hpp"
#include "graph/graph.hpp"
#include "partition/engine.hpp"
#include "sparse/convert.hpp"
#include "sparse/permute.hpp"
#include "sparse/symmetrize.hpp"

namespace pdslin {
namespace {

// Bitwise equality: values compared with ==, which is exact for the
// NaN-free outputs these kernels produce.
void expect_same_csc(const CscMatrix& a, const CscMatrix& b) {
  ASSERT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.col_ptr, b.col_ptr);
  EXPECT_EQ(a.row_idx, b.row_idx);
  EXPECT_EQ(a.values, b.values);
}

void expect_same_csr(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.row_ptr, b.row_ptr);
  EXPECT_EQ(a.col_idx, b.col_idx);
  EXPECT_EQ(a.values, b.values);
}

// RHS in factor row order — the real input shape of the blocked solve.
struct FactoredSubdomain {
  LuFactors lu;
  CscMatrix ehat;
};

FactoredSubdomain make_factored_subdomain() {
  GridFemOptions gen;
  gen.nx = gen.ny = 17;
  gen.shift = 0.2;
  gen.seed = 11;
  const CsrMatrix a = generate_grid_fem(gen).a;
  NgdOptions nopt;
  nopt.num_parts = 2;
  nopt.seed = 7;
  const DissectionResult nd =
      partition::ngd_engine(graph_from_matrix(symmetrize_abs(pattern_of(a))),
                            nopt, {})
          .unknowns;
  const DbbdPartition dbbd = build_dbbd(nd.part, 2);
  const Subdomain sub = extract_subdomain(a, dbbd, 0);

  FactoredSubdomain f;
  const std::vector<index_t> md =
      minimum_degree_ordering(symmetrize_abs(pattern_of(sub.d)));
  f.lu = lu_factorize(permute_symmetric(sub.d, md));
  const index_t nd_rows = sub.d.rows;
  std::vector<index_t> new_of(nd_rows);
  for (index_t k = 0; k < nd_rows; ++k) new_of[md[f.lu.row_perm[k]]] = k;
  CooMatrix coo(sub.ehat.rows, sub.ehat.cols);
  for (index_t i = 0; i < sub.ehat.rows; ++i) {
    for (index_t q = sub.ehat.row_ptr[i]; q < sub.ehat.row_ptr[i + 1]; ++q) {
      coo.add(new_of[i], sub.ehat.col_idx[q], sub.ehat.values[q]);
    }
  }
  f.ehat = coo_to_csc(coo);
  return f;
}

TEST(ParallelDeterminism, CachedPatternsMatchRecomputedReach) {
  const FactoredSubdomain f = make_factored_subdomain();
  std::vector<index_t> order(f.ehat.cols);
  std::iota(order.begin(), order.end(), 0);
  const auto patterns = symbolic_solve_patterns(f.lu.lower, f.ehat);

  MultiRhsOptions base;
  base.block_size = 16;
  const MultiRhsResult ref =
      solve_multi_rhs_blocked(f.lu.lower, f.ehat, order, base);
  MultiRhsOptions cached = base;
  cached.col_patterns = &patterns;
  const MultiRhsResult got =
      solve_multi_rhs_blocked(f.lu.lower, f.ehat, order, cached);
  expect_same_csc(ref.solution, got.solution);
  EXPECT_EQ(ref.stats.pattern_nnz, got.stats.pattern_nnz);
  EXPECT_EQ(ref.stats.padded_zeros, got.stats.padded_zeros);
}

// End-to-end: every D_ℓ's factors and T̃_ℓ, and the assembled S̃, from a
// factor() at outer threads 4 must equal those at threads 1 bitwise.
// factor() frees T̃_ℓ after the gather, so T̃ is compared through
// assemble_subdomain on each solver's own subdomains.
TEST(ParallelDeterminism, AssemblyAndSchurComplementMatchSerial) {
  GridFemOptions gen;
  gen.nx = gen.ny = 15;
  gen.shift = 0.2;
  gen.seed = 4;
  const CsrMatrix a = generate_grid_fem(gen).a;

  for (RhsOrdering ordering :
       {RhsOrdering::Postorder, RhsOrdering::Hypergraph}) {
    SolverOptions serial;
    serial.partitioning = PartitionMethod::NGD;
    serial.num_subdomains = 4;
    serial.assembly.rhs_ordering = ordering;
    serial.assembly.rhs_block_size = 8;
    SchurSolver ref(a, serial);
    ref.setup();
    ref.factor();

    SolverOptions parallel = serial;
    parallel.threads = 4;
    SchurSolver got(a, parallel);
    got.setup();
    got.factor();

    for (index_t l = 0; l < serial.num_subdomains; ++l) {
      const SubdomainFactorization& f1 = ref.factorizations()[l];
      const SubdomainFactorization& f4 = got.factorizations()[l];
      EXPECT_EQ(f1.colmap, f4.colmap) << "subdomain " << l;
      expect_same_csc(f1.lu.lower, f4.lu.lower);
      expect_same_csc(f1.lu.upper_t, f4.lu.upper_t);
      const CsrMatrix t1 =
          assemble_subdomain(ref.subdomains()[l], serial.assembly).t_tilde;
      const CsrMatrix t4 =
          assemble_subdomain(got.subdomains()[l], parallel.assembly).t_tilde;
      EXPECT_GT(t1.nnz(), 0) << "subdomain " << l;
      expect_same_csr(t1, t4);
    }
    expect_same_csr(ref.schur_tilde(), got.schur_tilde());
  }
}

}  // namespace
}  // namespace pdslin
