// Tests for permutations, SpMV/vector kernels, submatrix extraction,
// symmetrization, SpGEMM and Matrix Market I/O — all validated against
// dense oracles.
#include <gtest/gtest.h>

#include <sstream>

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
  const auto rows_then_cols = to_dense(permute_cols(permute_rows(a, p), p));
  EXPECT_EQ(full, rows_then_cols);
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

TEST(Add, LinearCombination) {
  const CsrMatrix a = testing::from_dense({{1, 0}, {0, 2}});
  const CsrMatrix b = testing::from_dense({{0, 3}, {4, 2}});
  const CsrMatrix c = add(a, b, 2.0, -1.0);
  const auto d = to_dense(c);
  EXPECT_DOUBLE_EQ(d[0][0], 2.0);
  EXPECT_DOUBLE_EQ(d[0][1], -3.0);
  EXPECT_DOUBLE_EQ(d[1][0], -4.0);
  EXPECT_DOUBLE_EQ(d[1][1], 2.0);
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
