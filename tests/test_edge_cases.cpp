// Edge-case and failure-injection tests across the library: tiny inputs,
// degenerate shapes, extreme options, and supernode detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

#include "core/schur_solver.hpp"
#include "direct/lu.hpp"
#include "direct/multirhs.hpp"
#include "direct/supernodes.hpp"
#include "direct/symbolic.hpp"
#include "graph/bisect.hpp"
#include "graph/graph.hpp"
#include "hypergraph/bisect.hpp"
#include "iterative/gmres.hpp"
#include "reorder/quasidense.hpp"
#include "sparse/io.hpp"
#include "sparse/ops.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace pdslin {
namespace {

TEST(EdgeCases, OneByOneMatrixEverywhere) {
  const CsrMatrix a = testing::from_dense({{3.0}});
  const LuFactors f = lu_factorize(a);
  std::vector<value_t> b{6.0}, x(1);
  lu_solve(f, b, x);
  EXPECT_DOUBLE_EQ(x[0], 2.0);

  const MatrixOperator op(a);
  std::vector<value_t> xg(1, 0.0);
  EXPECT_TRUE(gmres(op, nullptr, b, xg).converged);
  EXPECT_NEAR(xg[0], 2.0, 1e-12);
}

TEST(EdgeCases, DiagonalMatrixSolver) {
  // A block-diagonal system has empty interfaces; the pipeline must cope
  // with zero-column Ê and empty separators gracefully.
  const index_t n = 32;
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 2.0 + i % 3);
  const CsrMatrix a = coo_to_csr(coo);
  SolverOptions opt;
  opt.num_subdomains = 4;
  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();
  std::vector<value_t> b(n, 1.0), x(n, 0.0);
  EXPECT_TRUE(solver.solve(b, x).converged);
  EXPECT_LT(residual_norm(a, x, b), 1e-10);
}

TEST(EdgeCases, GraphBisectTinyGraphs) {
  for (index_t n : {1, 2, 3}) {
    CooMatrix coo(n, n);
    for (index_t i = 0; i < n; ++i) {
      coo.add(i, i, 1.0);
      if (i + 1 < n) {
        coo.add(i, i + 1, 1.0);
        coo.add(i + 1, i, 1.0);
      }
    }
    const Graph g = graph_from_matrix(coo_to_csr(coo));
    GraphBisectOptions opt;
    const GraphBisection b = bisect_graph(g, opt);
    EXPECT_EQ(b.side.size(), static_cast<std::size_t>(n));
  }
}

TEST(EdgeCases, HypergraphWithEmptyAndUnitNets) {
  // Nets with 0 or 1 pins must not break the bisector.
  Hypergraph h;
  h.num_vertices = 4;
  h.num_nets = 3;
  h.net_ptr = {0, 0, 1, 3};  // empty net, singleton net, 2-pin net
  h.net_pins = {2, 0, 1};
  h.vwgt.assign(4, 1);
  h.net_cost.assign(3, 1);
  h.build_vertex_lists();
  h.validate();
  HgBisectOptions opt;
  const HgBisection b = bisect_hypergraph(h, opt);
  EXPECT_EQ(b.side.size(), 4u);
  EXPECT_EQ(b.cut_cost, cut_cost_of(h, b.side));
}

TEST(EdgeCases, RecursivePartitionMorePartsThanVertices) {
  // Three vertices on one net, asked for eight parts.
  const CsrMatrix m = testing::from_dense({{1}, {1}, {1}});
  const auto part =
      testing::static_partition(m, 8, CutMetric::Con1, 0.05, 1);
  ASSERT_EQ(part.size(), 3u);
  for (index_t p : part) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 8);
  }
}

TEST(EdgeCases, MultiRhsEmptyAndDenseColumns) {
  Rng rng(3);
  const CsrMatrix a = testing::random_pattern_symmetric(20, 0.2, rng);
  const LuFactors f = lu_factorize(a);
  // One empty column, one fully dense column.
  CooMatrix coo(20, 3);
  for (index_t i = 0; i < 20; ++i) coo.add(i, 1, 1.0);
  coo.add(4, 2, 2.0);
  const CscMatrix b = coo_to_csc(coo);
  std::vector<index_t> order{0, 1, 2};
  const MultiRhsResult r = solve_multi_rhs_blocked(f.lower, b, order, 2);
  EXPECT_EQ(r.solution.col_nnz(0), 0);    // empty in, empty out
  EXPECT_EQ(r.solution.col_nnz(1), 20);   // dense in, dense out
  // Residual of the dense column.
  std::vector<value_t> dense(20, 1.0);
  lower_solve_dense(f.lower, dense, true);
  const auto vals = r.solution.col_vals(1);
  for (index_t i = 0; i < 20; ++i) EXPECT_NEAR(vals[i], dense[i], 1e-12);
}

TEST(EdgeCases, QuasiDenseAllRowsRemoved) {
  // 2 rows × 3 columns, both rows full.
  const std::vector<std::vector<index_t>> g = {{0, 1}, {0, 1}, {0, 1}};
  const QuasiDenseFilter f = remove_quasi_dense_rows(g, 2, 0.5);
  EXPECT_EQ(f.vertex_nets.cols, 0);
  EXPECT_TRUE(f.kept_rows.empty());
  EXPECT_EQ(f.removed_dense, 2);
}

TEST(EdgeCases, GmresRestartOne) {
  const CsrMatrix a = testing::grid_laplacian(5, 5);
  const MatrixOperator op(a);
  std::vector<value_t> b(a.rows, 1.0), x(a.rows, 0.0);
  KrylovOptions opt;
  opt.restart = 1;
  opt.max_iterations = 5000;
  EXPECT_TRUE(gmres(op, nullptr, b, x, opt).converged);
}

TEST(EdgeCases, SolverKEqualsOne) {
  const CsrMatrix a = testing::grid_laplacian(8, 8);
  SolverOptions opt;
  opt.num_subdomains = 1;  // degenerate: a single "subdomain", no separator?
  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();
  std::vector<value_t> b(a.rows, 1.0), x(a.rows, 0.0);
  EXPECT_TRUE(solver.solve(b, x).converged);
  EXPECT_LT(residual_norm(a, x, b), 1e-8);
}

// The fundamental supernodes of a's symbolic Cholesky factor: relaxed
// amalgamation at relax 0.
Supernodes fundamental_of(const CsrMatrix& a, index_t max_width = 0) {
  const SymbolicFactor sf = symbolic_cholesky(a);
  return relaxed_supernodes(sf.parent, sf.col_counts, max_width, 0.0);
}

CsrMatrix tridiagonal(index_t n) {
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 2.0);
    if (i + 1 < n) {
      coo.add(i, i + 1, -1.0);
      coo.add(i + 1, i, -1.0);
    }
  }
  return coo_to_csr(coo);
}

CsrMatrix dense_6x6() {
  Rng rng(5);
  return testing::random_pattern_symmetric(6, 1.0, rng, 8.0);
}

TEST(Supernodes, TridiagonalHasNone) {
  const index_t n = 10;
  const CsrMatrix a = tridiagonal(n);
  // Tridiagonal L: column j's below-diagonal row {j+1} differs from
  // column j+1's {j+2}, so no interior columns merge; only the final pair
  // (whose structures are {n-1} and {}) forms a width-2 panel → n−1 nodes.
  const Supernodes s = fundamental_of(a);
  EXPECT_EQ(s.count(), n - 1);
  EXPECT_EQ(s.width(s.count() - 1), 2);
  EXPECT_EQ(s.of_column.size(), static_cast<std::size_t>(n));
  // Capped width respects the limit.
  const Supernodes capped = fundamental_of(a, 4);
  for (index_t k = 0; k < capped.count(); ++k) EXPECT_LE(capped.width(k), 4);
}

TEST(Supernodes, DenseBlockIsOneSupernode) {
  // A dense 6×6 matrix: L is dense lower triangular → one supernode.
  const Supernodes s = fundamental_of(dense_6x6());
  EXPECT_EQ(s.count(), 1);
  EXPECT_DOUBLE_EQ(s.average_width(), 6.0);
}

// At relax 0, column j joins column j−1's panel exactly when
// parent(j−1) = j and count(j) = count(j−1) − 1, under the width cap (the
// fundamental-supernode rule); and on an SPD grid, which factors without
// pivoting, exactly when the two columns of L share their rows below j.
TEST(Supernodes, RelaxZeroIsTheFundamentalRule) {
  const CsrMatrix grid = testing::grid_laplacian(9, 9);
  for (const CsrMatrix& a : {tridiagonal(10), dense_6x6(), grid}) {
    const SymbolicFactor sf = symbolic_cholesky(a);
    for (const index_t cap : {0, 4}) {
      SCOPED_TRACE(::testing::Message() << "n " << a.rows << " cap " << cap);
      const Supernodes s =
          relaxed_supernodes(sf.parent, sf.col_counts, cap, 0.0);
      index_t width = 1;
      for (index_t j = 1; j < a.rows; ++j) {
        const bool merge = sf.parent[j - 1] == j &&
                           sf.col_counts[j] == sf.col_counts[j - 1] - 1 &&
                           (cap == 0 || width < cap);
        EXPECT_EQ(s.of_column[j] == s.of_column[j - 1], merge) << j;
        width = merge ? width + 1 : 1;
      }
    }
  }
  const LuFactors f = lu_factorize(grid);
  ASSERT_EQ(f.lower.nnz(), symbolic_cholesky(grid).factor_nnz);
  const Supernodes s = fundamental_of(grid);
  for (index_t j = 1; j < grid.rows; ++j) {
    // Column j−1 below its diagonal is {j} ∪ (column j below its diagonal).
    const auto prev = f.lower.col_rows(j - 1).subspan(1);
    const auto cur = f.lower.col_rows(j).subspan(1);
    const bool same = !prev.empty() && prev[0] == j &&
                      std::equal(prev.begin() + 1, prev.end(), cur.begin(),
                                 cur.end());
    EXPECT_EQ(s.of_column[j] == s.of_column[j - 1], same) << j;
  }
}

TEST(EdgeCases, MatrixMarketRejectsBadSizes) {
  std::stringstream ss("%%MatrixMarket matrix coordinate real general\n0 3 0\n");
  EXPECT_THROW(read_matrix_market(ss), Error);
  std::stringstream tr(
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(tr), Error);  // truncated entries
}

}  // namespace
}  // namespace pdslin
