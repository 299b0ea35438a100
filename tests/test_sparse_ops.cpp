// Tests for permutations, SpMV/vector kernels, submatrix extraction,
// symmetrization, SpGEMM and Matrix Market I/O — all validated against
// dense oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

#include "sparse/convert.hpp"
#include "sparse/io.hpp"
#include "util/error.hpp"
#include "sparse/ops.hpp"
#include "sparse/permute.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/symmetrize.hpp"
#include "test_util.hpp"

namespace pdslin {
namespace {

using testing::to_dense;

TEST(Permute, InverseAndValidity) {
  const std::vector<index_t> perm{2, 0, 3, 1};
  EXPECT_TRUE(is_permutation(perm, 4));
  const auto inv = invert_permutation(perm);
  for (index_t i = 0; i < 4; ++i) EXPECT_EQ(inv[perm[i]], i);
  const std::vector<index_t> dup{0, 0, 1};
  const std::vector<index_t> short_perm{0, 1};
  const std::vector<index_t> out_of_range{0, 3, 1};
  EXPECT_FALSE(is_permutation(dup, 3));
  EXPECT_FALSE(is_permutation(short_perm, 3));
  EXPECT_FALSE(is_permutation(out_of_range, 3));
}

TEST(Permute, FullPermuteMatchesDense) {
  Rng rng(5);
  const CsrMatrix a = testing::random_sparse(6, 5, 0.4, rng);
  const std::vector<index_t> rp{3, 1, 5, 0, 4, 2};
  const std::vector<index_t> cp{4, 2, 0, 1, 3};
  const CsrMatrix b = permute(a, rp, cp);
  const auto da = to_dense(a);
  const auto db = to_dense(b);
  for (index_t i = 0; i < 6; ++i) {
    for (index_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(db[i][j], da[rp[i]][cp[j]]);
    }
  }
}

TEST(Permute, SymmetricAndRowsColsAgree) {
  Rng rng(6);
  const CsrMatrix a = testing::random_sparse(7, 7, 0.4, rng);
  const std::vector<index_t> p{6, 0, 2, 5, 1, 4, 3};
  const auto full = to_dense(permute_symmetric(a, p));
  const auto rows_and_cols = to_dense(permute(a, p, p));
  EXPECT_EQ(full, rows_and_cols);
}

/// permute as a gather of the rows in their new order, then a sort of each
/// row by column: the reference the counting passes must reproduce.
CsrMatrix sort_permute(const CsrMatrix& a, const std::vector<index_t>& rp,
                       const std::vector<index_t>& cp) {
  const std::vector<index_t> icol = invert_permutation(cp);
  CsrMatrix b(a.rows, a.cols);
  for (index_t i = 0; i < a.rows; ++i) {
    std::vector<std::pair<index_t, value_t>> row;
    for (index_t p = a.row_ptr[rp[i]]; p < a.row_ptr[rp[i] + 1]; ++p) {
      row.emplace_back(icol[a.col_idx[p]],
                       a.has_values() ? a.values[p] : 0.0);
    }
    std::sort(row.begin(), row.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [c, v] : row) {
      b.col_idx.push_back(c);
      if (a.has_values()) b.values.push_back(v);
    }
    b.row_ptr[i + 1] = static_cast<index_t>(b.col_idx.size());
  }
  return b;
}

std::vector<index_t> shuffled(index_t n, Rng& rng) {
  std::vector<index_t> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), index_t{0});
  for (index_t i = n - 1; i > 0; --i) {
    std::swap(p[i], p[rng.bounded(static_cast<std::uint64_t>(i) + 1)]);
  }
  return p;
}

// permute's two counting passes and permuted_csc's one against the
// sort-based reference, entry for entry: valued and pattern-only
// matrices, empty rows, rows stored out of order, rectangular shapes and
// row permutations that differ from the column permutation.
TEST(Permute, CountingPassesMatchSortReference) {
  Rng rng(17);
  for (int rep = 0; rep < 40; ++rep) {
    const auto rows = static_cast<index_t>(1 + rng.bounded(30));
    const auto cols = static_cast<index_t>(1 + rng.bounded(30));
    CsrMatrix a = testing::random_sparse(rows, cols, 0.2, rng);
    // Empty rows: some of them, and every one when rep % 10 == 9.
    for (index_t i = 0; i < rows; ++i) {
      if (rep % 10 != 9 && rng.uniform() > 0.2) continue;
      const index_t b = a.row_ptr[i], e = a.row_ptr[i + 1];
      a.col_idx.erase(a.col_idx.begin() + b, a.col_idx.begin() + e);
      a.values.erase(a.values.begin() + b, a.values.begin() + e);
      for (index_t k = i + 1; k <= rows; ++k) a.row_ptr[k] -= e - b;
    }
    // Rows stored out of order (no column twice).
    for (index_t i = 0; i < rows; ++i) {
      if (rng.uniform() < 0.5) {
        std::reverse(a.col_idx.begin() + a.row_ptr[i],
                     a.col_idx.begin() + a.row_ptr[i + 1]);
        std::reverse(a.values.begin() + a.row_ptr[i],
                     a.values.begin() + a.row_ptr[i + 1]);
      }
    }
    if (rep % 2 == 1) a.values.clear();  // pattern only
    const std::vector<index_t> rp = shuffled(rows, rng);
    const std::vector<index_t> cp = shuffled(cols, rng);
    const CsrMatrix want = sort_permute(a, rp, cp);
    const CsrMatrix got = permute(a, rp, cp);
    EXPECT_EQ(got.rows, rows);
    EXPECT_EQ(got.cols, cols);
    EXPECT_EQ(got.row_ptr, want.row_ptr) << "rep " << rep;
    EXPECT_EQ(got.col_idx, want.col_idx) << "rep " << rep;
    EXPECT_EQ(got.values, want.values) << "rep " << rep;
    EXPECT_TRUE(got.is_sorted());
    const CscMatrix by_cols = permuted_csc(a, rp, cp);
    const CscMatrix want_cols = csr_to_csc(want);
    EXPECT_EQ(by_cols.col_ptr, want_cols.col_ptr) << "rep " << rep;
    EXPECT_EQ(by_cols.row_idx, want_cols.row_idx) << "rep " << rep;
    EXPECT_EQ(by_cols.values, want_cols.values) << "rep " << rep;
    if (rows == cols) {
      const CsrMatrix sym = permute_symmetric(a, rp);
      EXPECT_EQ(sym.col_idx, sort_permute(a, rp, rp).col_idx) << "rep " << rep;
    }
  }
}

TEST(Spmv, MatchesDense) {
  Rng rng(9);
  const CsrMatrix a = testing::random_sparse(8, 6, 0.4, rng);
  std::vector<value_t> x(6), y(8);
  for (auto& v : x) v = rng.uniform(-1, 1);
  spmv(a, x, y);
  const auto d = to_dense(a);
  for (index_t i = 0; i < 8; ++i) {
    value_t s = 0;
    for (index_t j = 0; j < 6; ++j) s += d[i][j] * x[j];
    EXPECT_NEAR(y[i], s, 1e-14);
  }
}

TEST(VectorKernels, NormDotAxpyResidual) {
  std::vector<value_t> x{3, 4};
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
  std::vector<value_t> y{1, -1};
  EXPECT_DOUBLE_EQ(dot(x, y), -1.0);
  axpy(2.0, x, y);
  EXPECT_EQ(y, (std::vector<value_t>{7, 7}));

  const CsrMatrix eye = testing::from_dense({{1, 0}, {0, 1}});
  std::vector<value_t> b{7, 7};
  EXPECT_DOUBLE_EQ(residual_norm(eye, y, b), 0.0);
}

TEST(Extract, SubmatrixMatchesDense) {
  Rng rng(11);
  const CsrMatrix a = testing::random_sparse(9, 9, 0.4, rng);
  const std::vector<index_t> rows{1, 4, 7};
  const std::vector<index_t> cols{0, 3, 8, 5};
  const CsrMatrix s = extract(a, rows, cols);
  const auto da = to_dense(a);
  const auto ds = to_dense(s);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < cols.size(); ++j) {
      EXPECT_DOUBLE_EQ(ds[i][j], da[rows[i]][cols[j]]);
    }
  }
}

TEST(Extract, NonzeroColumnsAndRowCounts) {
  const CsrMatrix a = testing::from_dense({{0, 1, 0}, {0, 2, 3}, {0, 0, 0}});
  EXPECT_EQ(nonzero_columns(a), (std::vector<index_t>{1, 2}));
}

TEST(Symmetrize, AbsSumAndFlags) {
  const CsrMatrix a = testing::from_dense({{1, -2, 0}, {0, 3, 4}, {5, 0, -6}});
  const CsrMatrix s = symmetrize_abs(a);
  const auto d = to_dense(s);
  EXPECT_DOUBLE_EQ(d[0][1], 2.0);   // |−2| + |0|
  EXPECT_DOUBLE_EQ(d[1][0], 2.0);
  EXPECT_DOUBLE_EQ(d[0][2], 5.0);
  EXPECT_DOUBLE_EQ(d[2][0], 5.0);
  EXPECT_DOUBLE_EQ(d[0][0], 2.0);   // |1| + |1|
  EXPECT_TRUE(pattern_symmetric(s));
  EXPECT_TRUE(value_symmetric(s, 0.0));
  EXPECT_FALSE(pattern_symmetric(a));
}

TEST(Spgemm, MatchesDenseProduct) {
  Rng rng(13);
  const CsrMatrix a = testing::random_sparse(7, 5, 0.4, rng);
  const CsrMatrix b = testing::random_sparse(5, 6, 0.4, rng);
  const CsrMatrix c = spgemm(a, b);
  const auto da = to_dense(a), db = to_dense(b), dc = to_dense(c);
  for (index_t i = 0; i < 7; ++i) {
    for (index_t j = 0; j < 6; ++j) {
      value_t s = 0;
      for (index_t k = 0; k < 5; ++k) s += da[i][k] * db[k][j];
      EXPECT_NEAR(dc[i][j], s, 1e-13);
    }
  }
  // Pattern product contains the numeric pattern.
  const CsrMatrix cp = spgemm_pattern(a, b);
  EXPECT_GE(cp.nnz(), c.nnz());
}

TEST(Spgemm, AtaPatternIsSymmetric) {
  Rng rng(17);
  const CsrMatrix m = testing::random_sparse(12, 8, 0.3, rng);
  const CsrMatrix p = ata_pattern(m);
  EXPECT_EQ(p.rows, 8);
  EXPECT_EQ(p.cols, 8);
  EXPECT_TRUE(pattern_symmetric(p));
}

TEST(MatrixMarket, RoundTrip) {
  Rng rng(19);
  const CsrMatrix a = testing::random_sparse(10, 7, 0.3, rng);
  std::stringstream ss;
  write_matrix_market(ss, a);
  const CsrMatrix back = read_matrix_market(ss);
  EXPECT_EQ(to_dense(back), to_dense(a));
}

TEST(MatrixMarket, SymmetricExpansionAndPattern) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% comment line\n"
      "3 3 3\n"
      "1 1 2.0\n"
      "2 1 -1.0\n"
      "3 3 5.0\n");
  const CsrMatrix a = read_matrix_market(ss);
  const auto d = to_dense(a);
  EXPECT_DOUBLE_EQ(d[0][1], -1.0);
  EXPECT_DOUBLE_EQ(d[1][0], -1.0);
  EXPECT_DOUBLE_EQ(d[2][2], 5.0);

  std::stringstream sp(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n"
      "2 1\n");
  const CsrMatrix b = read_matrix_market(sp);
  EXPECT_EQ(b.nnz(), 2);
  EXPECT_DOUBLE_EQ(to_dense(b)[0][1], 1.0);
}

TEST(MatrixMarket, RejectsGarbage) {
  std::stringstream ss("not a matrix market file\n1 1 1\n");
  EXPECT_THROW(read_matrix_market(ss), Error);
}

// The reader must reject 1-based indices outside the declared dimensions —
// the old narrowing cast silently accepted them and corrupted the COO
// build — and name the offending entry in the error.
TEST(MatrixMarket, RejectsOutOfBoundsIndicesWithEntryNumber) {
  const char* cases[] = {
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 2\n"
      "1 1 1.0\n"
      "4 1 2.0\n",  // row 4 of 3 (entry 2)
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 2\n"
      "1 1 1.0\n"
      "2 5 2.0\n",  // col 5 of 3 (entry 2)
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 1\n"
      "0 1 1.0\n",  // zero row index (entry 1)
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 1\n"
      "1 -2 1.0\n",  // negative col index (entry 1)
  };
  for (const char* text : cases) {
    std::stringstream ss(text);
    try {
      read_matrix_market(ss);
      FAIL() << "accepted out-of-bounds entry in:\n" << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("entry"), std::string::npos)
          << e.what();
    }
  }
}

// The size line is bounded before any cast or allocation: dimensions past
// the 32-bit index range, more entries than rows·cols, and a declared entry
// count far beyond the entries present each end in a reader error.
TEST(MatrixMarket, BoundsTheHeaderBeforeAnyCast) {
  const auto error_of = [](const std::string& text) -> std::string {
    std::stringstream ss(text);
    try {
      read_matrix_market(ss);
    } catch (const Error& e) {
      return e.what();
    }
    return "<accepted>";
  };
  // 4,294,967,299 = 2^32 + 3 rows: a 32-bit cast would read a 3 × 3 matrix.
  EXPECT_NE(error_of("%%MatrixMarket matrix coordinate real general\n"
                     "4294967299 3 3\n1 1 1.0\n2 2 1.0\n3 3 1.0\n")
                .find("exceeds"),
            std::string::npos);
  EXPECT_NE(error_of("%%MatrixMarket matrix coordinate real general\n"
                     "3 4294967299 1\n1 1 1.0\n")
                .find("exceeds"),
            std::string::npos);
  EXPECT_NE(error_of("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 5\n1 1 1.0\n")
                .find("entries exceed"),
            std::string::npos);
  // 10^11 declared entries over one line: the reader reserves a bounded
  // amount and stops at the missing second entry.
  EXPECT_NE(error_of("%%MatrixMarket matrix coordinate real general\n"
                     "1000000 1000000 100000000000\n1 1 1.0\n")
                .find("truncated entry list at entry 2"),
            std::string::npos);
  // 2^62 symmetric entries: 2·entries would overflow a signed 64-bit count.
  EXPECT_NE(error_of("%%MatrixMarket matrix coordinate real symmetric\n"
                     "2147483647 2147483647 4611686018427387904\n"
                     "1 1 1.0\n")
                .find("entries exceed"),
            std::string::npos);
}

TEST(MatrixMarket, RejectsNonFiniteValues) {
  for (const char* bad : {"nan", "inf", "-inf", "1e999"}) {
    std::stringstream ss(std::string(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "1 1 ") + bad + "\n");
    EXPECT_THROW(read_matrix_market(ss), Error) << bad;
  }
}

// A huge 1-based index that wraps negative under a 32-bit narrowing cast —
// exactly the silent-corruption case the validation closes.
TEST(MatrixMarket, RejectsIndicesBeyondIndexRange) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 1\n"
      "4294967297 1 1.0\n");
  EXPECT_THROW(read_matrix_market(ss), Error);
}

}  // namespace
}  // namespace pdslin
