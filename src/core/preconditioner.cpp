#include "core/preconditioner.hpp"

#include "direct/analysis.hpp"
#include "direct/trisolve.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace pdslin {

SchurPreconditioner::SchurPreconditioner(const CsrMatrix& s_tilde,
                                         const LuOptions& opt,
                                         const TrisolveOptions&)
    : n_(s_tilde.rows) {
  PDSLIN_CHECK(s_tilde.rows == s_tilde.cols);
  WallTimer timer;
  LuFactors f;
  {
    PatternAnalysis an = analyze_pattern(s_tilde, FillOrdering::MinimumDegree);
    f = lu_factorize(s_tilde, an, opt);
    colmap_ = std::move(an.colmap);
  }
  const index_t start = dense_block_start(f);
  lu_ = with_dense_block(std::move(f), start);
  factor_seconds_ = timer.seconds();
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
  block_lu_solve(lu_, std::span<value_t>(scratch.data(),
                                         static_cast<std::size_t>(n_)));
  for (index_t j = 0; j < n_; ++j) y[colmap_[j]] = scratch[j];
}

}  // namespace pdslin
