#include "core/preconditioner.hpp"

#include "direct/mindeg.hpp"
#include "direct/trisolve.hpp"
#include "sparse/convert.hpp"
#include "sparse/permute.hpp"
#include "sparse/symmetrize.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace pdslin {

SchurPreconditioner::SchurPreconditioner(const CsrMatrix& s_tilde,
                                         const LuOptions& opt,
                                         const TrisolveOptions&)
    : n_(s_tilde.rows), scratch_(s_tilde.rows) {
  PDSLIN_CHECK(s_tilde.rows == s_tilde.cols);
  WallTimer timer;
  const CsrMatrix sym = symmetrize_abs(pattern_of(s_tilde));
  colmap_ = minimum_degree_ordering(sym);
  const CsrMatrix ordered = permute_symmetric(s_tilde, colmap_);
  lu_ = lu_factorize(ordered, opt);
  factor_seconds_ = timer.seconds();
}

void SchurPreconditioner::apply(std::span<const value_t> x,
                                std::span<value_t> y) const {
  apply_with_scratch(x, y, scratch_);
}

void SchurPreconditioner::apply_with_scratch(
    std::span<const value_t> x, std::span<value_t> y,
    std::vector<value_t>& scratch) const {
  PDSLIN_CHECK(x.size() == static_cast<std::size_t>(n_));
  PDSLIN_CHECK(y.size() == static_cast<std::size_t>(n_));
  if (scratch.size() < static_cast<std::size_t>(n_)) scratch.resize(n_);
  // Permute into factor space, solve, permute back.
  for (index_t k = 0; k < n_; ++k) {
    scratch[k] = x[colmap_[lu_.row_perm[k]]];
  }
  const std::span<value_t> ws(scratch.data(), static_cast<std::size_t>(n_));
  lower_solve_dense(lu_.lower, ws, /*unit_diag=*/true);
  upper_solve_dense(lu_.upper, ws);
  for (index_t j = 0; j < n_; ++j) y[colmap_[j]] = scratch[j];
}

}  // namespace pdslin
