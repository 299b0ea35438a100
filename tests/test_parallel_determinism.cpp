// Determinism of the two-level parallel kernels: the block-parallel
// multi-RHS triangular solve, the row-parallel SpGEMM, the parallel drop
// sweeps and the whole per-subdomain assembly must return bitwise-identical
// results for every thread count — the parallel schedule only changes who
// computes a block/row, never what is computed.
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
#include "sparse/spgemm.hpp"
#include "sparse/symmetrize.hpp"
#include "util/rng.hpp"

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

CsrMatrix random_csr(index_t rows, index_t cols, index_t nnz_per_row,
                     std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix coo(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    for (index_t s = 0; s < nnz_per_row; ++s) {
      coo.add(i, rng.index(cols), rng.uniform(-1.0, 1.0));
    }
  }
  return coo_to_csr(coo);
}

// One factored subdomain of a seeded generator matrix plus its interface
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

TEST(ParallelDeterminism, MultiRhsBlockedSolveMatchesSerialBitwise) {
  const FactoredSubdomain f = make_factored_subdomain();
  ASSERT_GT(f.ehat.cols, 0);
  std::vector<index_t> order(f.ehat.cols);
  std::iota(order.begin(), order.end(), 0);

  for (index_t block_size : {4, 16, 60}) {
    MultiRhsOptions serial;
    serial.block_size = block_size;
    const MultiRhsResult ref =
        solve_multi_rhs_blocked(f.lu.lower, f.ehat, order, serial);
    for (unsigned threads : {2u, 4u, 9u}) {
      MultiRhsOptions par = serial;
      par.threads = threads;
      const MultiRhsResult got =
          solve_multi_rhs_blocked(f.lu.lower, f.ehat, order, par);
      expect_same_csc(ref.solution, got.solution);
      // Counting stats are schedule-independent too (times are not).
      EXPECT_EQ(ref.stats.pattern_nnz, got.stats.pattern_nnz);
      EXPECT_EQ(ref.stats.padded_zeros, got.stats.padded_zeros);
      EXPECT_EQ(ref.stats.union_rows_total, got.stats.union_rows_total);
      EXPECT_EQ(ref.stats.num_blocks, got.stats.num_blocks);
    }
  }
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
  for (unsigned threads : {1u, 4u}) {
    MultiRhsOptions cached = base;
    cached.threads = threads;
    cached.col_patterns = &patterns;
    const MultiRhsResult got =
        solve_multi_rhs_blocked(f.lu.lower, f.ehat, order, cached);
    expect_same_csc(ref.solution, got.solution);
    EXPECT_EQ(ref.stats.pattern_nnz, got.stats.pattern_nnz);
    EXPECT_EQ(ref.stats.padded_zeros, got.stats.padded_zeros);
  }
}

TEST(ParallelDeterminism, SpgemmMatchesSerialBitwise) {
  const CsrMatrix a = random_csr(120, 90, 6, 101);
  const CsrMatrix b = random_csr(90, 110, 5, 202);
  const CsrMatrix ref = spgemm(a, b);
  const CsrMatrix ref_pat = spgemm_pattern(a, b);
  for (unsigned threads : {2u, 4u, 16u}) {
    expect_same_csr(ref, spgemm(a, b, threads));
    const CsrMatrix pat = spgemm_pattern(a, b, threads);
    EXPECT_EQ(ref_pat.row_ptr, pat.row_ptr);
    EXPECT_EQ(ref_pat.col_idx, pat.col_idx);
  }
}

TEST(ParallelDeterminism, DropSmallColumnsMatchesSerial) {
  const CscMatrix a = csr_to_csc(random_csr(150, 80, 7, 303));
  const CscMatrix ref = drop_small_columns(a, 0.3);
  for (unsigned threads : {2u, 4u, 11u}) {
    expect_same_csc(ref, drop_small_columns(a, 0.3, threads));
  }
}

// End-to-end: the entire subdomain assembly (both triangular solves, drops,
// the T̃ product) under inner threads, and the assembled S̃ under a full
// two-level factor(), must equal the serial results bitwise. factor() frees
// T̃_ℓ after the gather, so T̃ is compared through assemble_subdomain on the
// solver's own subdomains.
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
    parallel.assembly.inner_threads = 4;
    SchurSolver got(a, parallel);
    got.setup();
    got.factor();

    for (index_t l = 0; l < serial.num_subdomains; ++l) {
      const Subdomain& sub = got.subdomains()[l];
      const CsrMatrix t1 = assemble_subdomain(sub, serial.assembly).t_tilde;
      const CsrMatrix t4 = assemble_subdomain(sub, parallel.assembly).t_tilde;
      EXPECT_GT(t1.nnz(), 0) << "subdomain " << l;
      expect_same_csr(t1, t4);
    }
    expect_same_csr(ref.schur_tilde(), got.schur_tilde());
  }
}

}  // namespace
}  // namespace pdslin
