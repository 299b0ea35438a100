// Deep correctness tests of the Schur assembly (paper Eq. (5) and the
// Ŝ gather): with all drop thresholds at zero, T̃_ℓ must equal the exact
// F̂ D⁻¹ Ê and the assembled S̃ must equal the dense Schur complement —
// which validates the entire permutation algebra (MD ordering, optional
// postorder, LU row pivoting, packed interface maps) in one shot.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/dbbd.hpp"
#include "core/schur_assembly.hpp"
#include "core/subdomain.hpp"
#include "direct/kernels.hpp"
#include "gen/grid_fem.hpp"
#include "obs/metrics.hpp"
#include "graph/graph.hpp"
#include "partition/engine.hpp"
#include "sparse/convert.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/symmetrize.hpp"
#include "test_util.hpp"

namespace pdslin {
namespace {

using testing::Dense;
using testing::to_dense;

// Dense oracle for T = F̂ D⁻¹ Ê.
Dense dense_update_matrix(const Subdomain& sub) {
  const Dense d = to_dense(sub.d);
  const Dense e = to_dense(sub.ehat);
  const Dense f = to_dense(sub.fhat);
  const index_t nd = sub.d.rows;
  const auto ne = static_cast<index_t>(sub.e_cols.size());
  const auto nf = static_cast<index_t>(sub.f_rows.size());

  // Z = D⁻¹ Ê, column by column.
  Dense z(nd, std::vector<value_t>(ne, 0.0));
  for (index_t j = 0; j < ne; ++j) {
    std::vector<value_t> b(nd), x;
    for (index_t i = 0; i < nd; ++i) b[i] = e[i][j];
    EXPECT_TRUE(testing::dense_solve(d, b, x));
    for (index_t i = 0; i < nd; ++i) z[i][j] = x[i];
  }
  Dense t(nf, std::vector<value_t>(ne, 0.0));
  for (index_t r = 0; r < nf; ++r) {
    for (index_t j = 0; j < ne; ++j) {
      value_t s = 0.0;
      for (index_t i = 0; i < nd; ++i) s += f[r][i] * z[i][j];
      t[r][j] = s;
    }
  }
  return t;
}

struct Fixture {
  CsrMatrix a;
  DbbdPartition dbbd;
};

Fixture make_setup(index_t grid, index_t k) {
  Fixture s;
  GridFemOptions gen;
  gen.nx = gen.ny = grid;
  gen.shift = 0.15;
  gen.seed = 3;
  s.a = generate_grid_fem(gen).a;
  NgdOptions nopt;
  nopt.num_parts = k;
  nopt.seed = 5;
  const DissectionResult nd =
      partition::ngd_engine(graph_from_matrix(symmetrize_abs(pattern_of(s.a))),
                            nopt, {})
          .unknowns;
  s.dbbd = build_dbbd(nd.part, k);
  return s;
}

class AssemblyOrdering : public ::testing::TestWithParam<RhsOrdering> {};

TEST_P(AssemblyOrdering, TTildeMatchesDenseOracleWithoutDropping) {
  const Fixture s = make_setup(11, 2);
  SchurAssemblyOptions opt;
  opt.drop_wg = 0.0;
  opt.drop_s = 0.0;
  opt.rhs_block_size = 7;
  opt.rhs_ordering = GetParam();

  for (index_t l = 0; l < 2; ++l) {
    const Subdomain sub = extract_subdomain(s.a, s.dbbd, l);
    const SubdomainFactorization fact = assemble_subdomain(sub, opt);
    const Dense oracle = dense_update_matrix(sub);
    const Dense got = to_dense(fact.t_tilde);
    ASSERT_EQ(got.size(), oracle.size());
    for (std::size_t r = 0; r < oracle.size(); ++r) {
      for (std::size_t c = 0; c < oracle[r].size(); ++c) {
        EXPECT_NEAR(got[r][c], oracle[r][c], 1e-8)
            << "T(" << r << "," << c << ") ordering " << to_string(GetParam());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrderings, AssemblyOrdering,
                         ::testing::Values(RhsOrdering::Natural,
                                           RhsOrdering::Postorder,
                                           RhsOrdering::Hypergraph));

TEST(SchurAssembly, STildeEqualsDenseSchurComplement) {
  const Fixture s = make_setup(10, 2);
  SchurAssemblyOptions opt;
  opt.drop_wg = 0.0;
  opt.drop_s = 0.0;

  std::vector<Subdomain> subs;
  std::vector<SubdomainFactorization> facts;
  for (index_t l = 0; l < 2; ++l) {
    subs.push_back(extract_subdomain(s.a, s.dbbd, l));
    facts.push_back(assemble_subdomain(subs.back(), opt));
  }
  const CsrMatrix c_block = extract_separator_block(s.a, s.dbbd);
  const CsrMatrix s_tilde = assemble_schur(c_block, subs, facts, 0.0);

  // Dense oracle: S = C − Σ F_l D_l⁻¹ E_l over the FULL interfaces.
  const index_t ns = c_block.rows;
  Dense schur = to_dense(c_block);
  for (index_t l = 0; l < 2; ++l) {
    const Dense t = dense_update_matrix(subs[l]);
    for (std::size_t r = 0; r < subs[l].f_rows.size(); ++r) {
      for (std::size_t c = 0; c < subs[l].e_cols.size(); ++c) {
        schur[subs[l].f_rows[r]][subs[l].e_cols[c]] -= t[r][c];
      }
    }
  }
  const Dense got = to_dense(s_tilde);
  for (index_t i = 0; i < ns; ++i) {
    for (index_t j = 0; j < ns; ++j) {
      EXPECT_NEAR(got[i][j], schur[i][j], 1e-8) << i << "," << j;
    }
  }
}

TEST(SchurAssembly, DropSmallColumnsIsRelative) {
  CooMatrix coo(4, 2);
  coo.add(0, 0, 100.0);
  coo.add(1, 0, 1e-5);     // 1e-7 relative → dropped at 1e-6
  coo.add(2, 0, 1.0);
  coo.add(0, 1, 1e-9);     // column max 1e-9 → kept (relative 1)
  const CscMatrix a = coo_to_csc(coo);
  const CscMatrix out = drop_small_columns(a, 1e-6);
  EXPECT_EQ(out.col_nnz(0), 2);
  EXPECT_EQ(out.col_nnz(1), 1);
  // Exact zeros never survive.
  CooMatrix z(2, 1);
  z.add(0, 0, 0.0);
  EXPECT_EQ(drop_small_columns(coo_to_csc(z), 0.0).nnz(), 0);
}

TEST(SchurAssembly, DroppingShrinksTTildeMonotonically) {
  const Fixture s = make_setup(12, 2);
  auto nnz_at = [&](double tol) {
    SchurAssemblyOptions opt;
    opt.drop_wg = tol;
    const Subdomain sub = extract_subdomain(s.a, s.dbbd, 0);
    return assemble_subdomain(sub, opt).t_tilde.nnz();
  };
  const index_t exact = nnz_at(0.0);
  const index_t loose = nnz_at(1e-4);
  const index_t brutal = nnz_at(1e-1);
  EXPECT_GE(exact, loose);
  EXPECT_GE(loose, brutal);
  EXPECT_GT(brutal, 0);
}

TEST(SchurAssembly, ZeroRelTolKeepsEveryNonzero) {
  // rel_tol = 0 is the exact-assembly contract: cut = 0·cmax = 0, so every
  // structural nonzero survives and only exact zeros are removed.
  CooMatrix coo(5, 3);
  coo.add(0, 0, 1e-300);
  coo.add(1, 0, -1e300);
  coo.add(2, 0, 1.0);
  coo.add(3, 1, 1e-30);
  coo.add(4, 2, 0.0);  // exact zero: the only entry that may go
  const CscMatrix out = drop_small_columns(coo_to_csc(coo), 0.0);
  EXPECT_EQ(out.col_nnz(0), 3);
  EXPECT_EQ(out.col_nnz(1), 1);
  EXPECT_EQ(out.col_nnz(2), 0);

  // Same contract through assemble_schur: with no subdomain updates and
  // drop_s = 0 the assembled S̃ is the separator block, entry for entry.
  CooMatrix cb(3, 3);
  cb.add(0, 0, 1e-200);
  cb.add(0, 2, -5.0);
  cb.add(1, 1, 1e-9);
  cb.add(2, 0, 3.0);
  cb.add(2, 2, 1e-100);
  const CsrMatrix c_block = coo_to_csr(cb);
  const CsrMatrix s =
      assemble_schur(c_block, {}, {}, /*drop_s=*/0.0);
  EXPECT_EQ(s.row_ptr, c_block.row_ptr);
  EXPECT_EQ(s.col_idx, c_block.col_idx);
  EXPECT_EQ(s.values, c_block.values);
}

TEST(SchurAssembly, AllZeroColumnIsDroppedWithoutIncident) {
  // cmax == 0 edge: the relative cut degenerates to 0 and the v != 0 guard
  // must carry the whole decision — no 0/0, no survivors, for any rel_tol.
  CooMatrix coo(3, 2);
  coo.add(0, 0, 0.0);
  coo.add(1, 0, 0.0);
  coo.add(2, 0, 0.0);
  coo.add(1, 1, 2.0);
  for (const double tol : {0.0, 1e-6, 1.0}) {
    const CscMatrix out = drop_small_columns(coo_to_csc(coo), tol);
    EXPECT_EQ(out.col_nnz(0), 0) << "tol=" << tol;
    EXPECT_EQ(out.col_nnz(1), 1) << "tol=" << tol;
  }
}

TEST(SchurAssembly, DiagonalKeptUnderRowParallelSweeps) {
  // Tiny diagonals under a cut that would drop them: the diagonal is always
  // kept (LU(S̃) needs it), and the row-parallel two-pass sweep must agree
  // bitwise with the serial sweep on exactly which entries survive.
  const index_t ns = 16;
  CooMatrix cb(ns, ns);
  for (index_t i = 0; i < ns; ++i) {
    cb.add(i, i, 1e-12);  // far below every row cut
    cb.add(i, (i + 1) % ns, 100.0 + i);
    cb.add(i, (i + 5) % ns, i % 3 == 0 ? 1e-6 : 50.0);  // some get dropped
  }
  const CsrMatrix c_block = coo_to_csr(cb);
  const CsrMatrix serial =
      assemble_schur(c_block, {}, {}, /*drop_s=*/0.5, /*threads=*/1);
  for (index_t i = 0; i < ns; ++i) {
    bool has_diag = false;
    for (index_t q = serial.row_ptr[i]; q < serial.row_ptr[i + 1]; ++q) {
      has_diag = has_diag || serial.col_idx[q] == i;
    }
    EXPECT_TRUE(has_diag) << "row " << i << " lost its diagonal";
  }
  for (const unsigned threads : {2u, 4u}) {
    const CsrMatrix par =
        assemble_schur(c_block, {}, {}, /*drop_s=*/0.5, threads);
    EXPECT_EQ(par.row_ptr, serial.row_ptr) << "threads=" << threads;
    EXPECT_EQ(par.col_idx, serial.col_idx) << "threads=" << threads;
    EXPECT_EQ(par.values, serial.values) << "threads=" << threads;
  }

  // And on a real fixture end to end: the full pipeline's S̃ is thread-count
  // independent at a dropping tolerance.
  const Fixture s = make_setup(10, 2);
  SchurAssemblyOptions opt;
  opt.drop_wg = 0.0;
  opt.drop_s = 1e-3;
  std::vector<Subdomain> subs;
  std::vector<SubdomainFactorization> facts;
  for (index_t l = 0; l < 2; ++l) {
    subs.push_back(extract_subdomain(s.a, s.dbbd, l));
    facts.push_back(assemble_subdomain(subs.back(), opt));
  }
  const CsrMatrix block = extract_separator_block(s.a, s.dbbd);
  const CsrMatrix t1 = assemble_schur(block, subs, facts, 1e-3, 1);
  const CsrMatrix t4 = assemble_schur(block, subs, facts, 1e-3, 4);
  EXPECT_EQ(t1.row_ptr, t4.row_ptr);
  EXPECT_EQ(t1.col_idx, t4.col_idx);
  EXPECT_EQ(t1.values, t4.values);
}

/// CSC from per-column (row, value) lists, rows ascending; stored zeros
/// stay stored.
CscMatrix csc_from_columns(
    index_t rows, const std::vector<std::vector<std::pair<index_t, value_t>>>& cols) {
  CscMatrix m(rows, static_cast<index_t>(cols.size()));
  for (std::size_t j = 0; j < cols.size(); ++j) {
    for (const auto& [r, v] : cols[j]) {
      m.row_idx.push_back(r);
      m.values.push_back(v);
    }
    m.col_ptr[j + 1] = static_cast<index_t>(m.row_idx.size());
  }
  return m;
}

void expect_same_bits(const CsrMatrix& want, const CsrMatrix& got,
                      const std::string& what) {
  EXPECT_EQ(want.rows, got.rows) << what;
  EXPECT_EQ(want.cols, got.cols) << what;
  EXPECT_EQ(want.row_ptr, got.row_ptr) << what;
  EXPECT_EQ(want.col_idx, got.col_idx) << what;
  ASSERT_EQ(want.values.size(), got.values.size()) << what;
  EXPECT_EQ(0, std::memcmp(want.values.data(), got.values.data(),
                           want.values.size() * sizeof(value_t)))
      << what;
}

// interface_product against spgemm (Gustavson) bit for bit, on each kernel
// path at inner_threads 1 and 4: T̃ widths across the bitmask word
// boundaries, empty W̃ and G̃ rows, stored 0.0 and −0.0 in G̃, a G̃ row
// spanning every column, and a NaN or ∞ in W̃, which takes spgemm.
TEST(SchurAssembly, InterfaceProductMatchesSpgemm) {
  const auto paths = testing::kernel_paths();
  ASSERT_FALSE(paths.empty());
  Rng rng(91);
  const index_t nd = 40, mf = 23;
  const auto value = [&] {
    const double r = rng.uniform();
    return r < 0.1 ? 0.0 : r < 0.2 ? -0.0 : rng.uniform(-1.0, 1.0);
  };
  obs::Counter& flops = obs::counter("spgemm.flops");
  for (const index_t m : {1, 63, 64, 65, 130}) {
    // G̃ (nd × m): row 0 spans columns 0 … m−1, rows 5–9 are empty, every
    // other row holds a few entries in a window of 9 columns.
    std::vector<std::vector<std::pair<index_t, value_t>>> gcols(m);
    for (index_t k = 0; k < nd; ++k) {
      if (k >= 5 && k < 10) continue;
      if (k == 0) {
        gcols[0].push_back({0, rng.uniform(-1.0, 1.0)});
        if (m > 1) gcols[m - 1].push_back({0, rng.uniform(-1.0, 1.0)});
        continue;
      }
      const auto c0 = static_cast<index_t>(rng.bounded(m));
      for (index_t j = c0; j < std::min(m, c0 + 9); ++j) {
        if (rng.uniform() < 0.5) gcols[j].push_back({k, value()});
      }
    }
    const CscMatrix g = csc_from_columns(nd, gcols);
    // W̃ᵀ (nd × mf): W̃ rows 3 and 7 are empty; the others read 6 random
    // G̃ rows, the empty ones included.
    std::vector<std::vector<std::pair<index_t, value_t>>> wcols(mf);
    for (index_t i = 0; i < mf; ++i) {
      if (i == 3 || i == 7) continue;
      for (index_t k = 0; k < nd; ++k) {
        if (rng.uniform() < 0.15) wcols[i].push_back({k, rng.uniform(-1.0, 1.0)});
      }
    }
    const CscMatrix wt = csc_from_columns(nd, wcols);
    for (const value_t bad : {0.0, std::numeric_limits<value_t>::quiet_NaN(),
                              std::numeric_limits<value_t>::infinity()}) {
      CscMatrix w_in = wt;
      if (bad != 0.0) w_in.values[w_in.values.size() / 2] = bad;
      CsrMatrix w;
      w.rows = w_in.cols;
      w.cols = w_in.rows;
      w.row_ptr = w_in.col_ptr;
      w.col_idx = w_in.row_idx;
      w.values = w_in.values;
      const long long f0 = flops.value();
      const CsrMatrix want = spgemm(w, csc_to_csr(g));
      const long long want_flops = flops.value() - f0;
      ASSERT_GT(want.nnz(), 0);
      for (const panel::KernelTable* t : paths) {
        for (const unsigned threads : {1u, 4u}) {
          const long long f1 = flops.value();
          const CsrMatrix got = interface_product(w_in, g, threads, t);
          const std::string what = "m " + std::to_string(m) + " threads " +
                                   std::to_string(threads) + " bad " +
                                   std::to_string(bad);
          expect_same_bits(want, got, what);
          EXPECT_EQ(flops.value() - f1, want_flops) << what;
        }
      }
    }
  }
}

TEST(SchurAssembly, StatsArePopulated) {
  const Fixture s = make_setup(12, 2);
  SchurAssemblyOptions opt;
  const Subdomain sub = extract_subdomain(s.a, s.dbbd, 0);
  const SubdomainFactorization f = assemble_subdomain(sub, opt);
  EXPECT_GT(f.lu_nnz, sub.d.rows);
  EXPECT_EQ(f.nnz_ehat, sub.ehat.nnz());
  EXPECT_GT(f.g_stats.pattern_nnz, 0);
  EXPECT_GT(f.w_stats.pattern_nnz, 0);
  EXPECT_GT(f.g_nnzcol, 0);
  EXPECT_GT(f.g_nnzrow, 0);
  EXPECT_GE(f.g_stats.padded_zeros, 0);
  // The fill-ratio property Table III reports: nnz(G) ≥ nnz(Ê).
  EXPECT_GE(f.g_stats.pattern_nnz, f.nnz_ehat);
}

}  // namespace
}  // namespace pdslin
