// Determinism of the subdomain-parallel set-up: factor() at threads 4 must
// return the bits of threads 1 — the schedule only changes which worker
// factors a subdomain, never what is computed.
#include <gtest/gtest.h>

#include "core/schur_assembly.hpp"
#include "core/schur_solver.hpp"
#include "gen/grid_fem.hpp"

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
