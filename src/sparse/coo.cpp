#include "sparse/coo.hpp"

#include "util/error.hpp"

namespace pdslin {

CooMatrix::CooMatrix(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
  PDSLIN_CHECK(rows >= 0 && cols >= 0);
}

void CooMatrix::add(index_t row, index_t col, value_t value) {
  PDSLIN_CHECK_MSG(row >= 0 && row < rows_ && col >= 0 && col < cols_,
                   "COO entry out of range");
  row_.push_back(row);
  col_.push_back(col);
  val_.push_back(value);
}

void CooMatrix::resize(index_t rows, index_t cols) {
  PDSLIN_CHECK(rows >= rows_ && cols >= cols_);
  rows_ = rows;
  cols_ = cols;
}

void CooMatrix::reserve(std::size_t nnz) {
  row_.reserve(nnz);
  col_.reserve(nnz);
  val_.reserve(nnz);
}

void CooMatrix::clear() {
  row_.clear();
  col_.clear();
  val_.clear();
}

}  // namespace pdslin
