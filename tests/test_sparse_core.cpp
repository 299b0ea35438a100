// Unit tests for the sparse-matrix substrate: COO assembly, CSR/CSC
// conversion, transposition, sorting, validation, dropping.
#include <gtest/gtest.h>

#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace pdslin {
namespace {

using testing::to_dense;

TEST(Coo, AddAndBounds) {
  CooMatrix coo(3, 4);
  coo.add(0, 0, 1.0);
  coo.add(2, 3, -2.0);
  EXPECT_EQ(coo.nnz(), 2u);
  EXPECT_THROW(coo.add(3, 0, 1.0), Error);
  EXPECT_THROW(coo.add(0, 4, 1.0), Error);
  EXPECT_THROW(coo.add(-1, 0, 1.0), Error);
}

TEST(CooToCsr, SumsDuplicates) {
  CooMatrix coo(2, 2);
  coo.add(0, 1, 1.5);
  coo.add(0, 1, 2.5);
  coo.add(1, 0, -1.0);
  const CsrMatrix a = coo_to_csr(coo);
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(to_dense(a)[0][1], 4.0);
  a.validate();
  EXPECT_TRUE(a.is_sorted());
}

TEST(CooToCsc, MatchesCsr) {
  Rng rng(7);
  const CsrMatrix a = testing::random_sparse(13, 9, 0.3, rng);
  CooMatrix coo(13, 9);
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      coo.add(i, a.col_idx[p], a.values[p]);
    }
  }
  const CscMatrix c = coo_to_csc(coo);
  c.validate();
  EXPECT_TRUE(c.is_sorted());
  EXPECT_EQ(to_dense(c), to_dense(a));
}

TEST(Convert, CsrCscRoundTrip) {
  Rng rng(42);
  const CsrMatrix a = testing::random_sparse(17, 11, 0.25, rng);
  const CscMatrix c = csr_to_csc(a);
  const CsrMatrix back = csc_to_csr(c);
  EXPECT_EQ(to_dense(back), to_dense(a));
}

TEST(Convert, TransposeIsInvolution) {
  Rng rng(3);
  const CsrMatrix a = testing::random_sparse(10, 14, 0.3, rng);
  const CsrMatrix att = transpose(transpose(a));
  EXPECT_EQ(to_dense(att), to_dense(a));
  // And transpose actually transposes.
  const auto d = to_dense(a);
  const auto dt = to_dense(transpose(a));
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t j = 0; j < a.cols; ++j) {
      EXPECT_DOUBLE_EQ(d[i][j], dt[j][i]);
    }
  }
}

TEST(Convert, TransposePatternOnly) {
  CsrMatrix a(2, 3);
  a.col_idx = {0, 2, 1};
  a.row_ptr = {0, 2, 3};
  const CsrMatrix t = transpose(a);
  EXPECT_FALSE(t.has_values());
  EXPECT_EQ(t.rows, 3);
  EXPECT_EQ(t.cols, 2);
  EXPECT_EQ(t.nnz(), 3);
}

TEST(Csr, ValidateCatchesCorruption) {
  CsrMatrix a(2, 2);
  a.col_idx = {0, 5};  // out of range
  a.row_ptr = {0, 1, 2};
  a.values = {1.0, 2.0};
  EXPECT_THROW(a.validate(), Error);
  a.col_idx = {0, 1};
  EXPECT_NO_THROW(a.validate());
  a.row_ptr = {0, 2, 1};  // non-monotone
  EXPECT_THROW(a.validate(), Error);
}

TEST(Csr, SortRowsKeepsValuesAligned) {
  CsrMatrix a(1, 4);
  a.col_idx = {3, 0, 2};
  a.values = {3.0, 0.5, 2.0};
  a.row_ptr = {0, 3};
  EXPECT_FALSE(a.is_sorted());
  a.sort_rows();
  EXPECT_TRUE(a.is_sorted());
  EXPECT_EQ(a.col_idx, (std::vector<index_t>{0, 2, 3}));
  EXPECT_EQ(a.values, (std::vector<value_t>{0.5, 2.0, 3.0}));
}

TEST(DropSmall, ThresholdAndDiagonal) {
  CooMatrix coo(3, 3);
  coo.add(0, 0, 1e-12);
  coo.add(0, 1, 0.5);
  coo.add(1, 1, 2.0);
  coo.add(2, 0, 1e-9);
  coo.add(2, 2, 1e-12);
  const CsrMatrix a = coo_to_csr(coo);
  const CsrMatrix kept = drop_small(a, 1e-6, /*keep_diagonal=*/true);
  const auto d = to_dense(kept);
  EXPECT_DOUBLE_EQ(d[0][0], 1e-12);  // diagonal kept
  EXPECT_DOUBLE_EQ(d[0][1], 0.5);
  EXPECT_DOUBLE_EQ(d[2][0], 0.0);  // dropped
  const CsrMatrix strict = drop_small(a, 1e-6, /*keep_diagonal=*/false);
  EXPECT_DOUBLE_EQ(to_dense(strict)[0][0], 0.0);
}

TEST(PatternOf, DropsValues) {
  Rng rng(1);
  const CsrMatrix a = testing::random_sparse(5, 5, 0.5, rng);
  const CsrMatrix p = pattern_of(a);
  EXPECT_FALSE(p.has_values());
  EXPECT_EQ(p.nnz(), a.nnz());
}

}  // namespace
}  // namespace pdslin
