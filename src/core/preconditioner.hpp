// Schur-complement preconditioner: LU factors of the sparsified S̃ applied
// as M⁻¹ inside GMRES (paper §I: "the LU factors of S̃ are computed … and
// used as a preconditioner for solving (2)").
#pragma once

#include "direct/lu.hpp"
#include "direct/trisolve.hpp"
#include "iterative/operators.hpp"

namespace pdslin {

class SchurPreconditioner final : public LinearOperator {
 public:
  /// Factorizes S̃ (throws pdslin::Error if singular). A fill-reducing
  /// ordering is applied internally. The third parameter is unused (see
  /// TrisolveOptions).
  explicit SchurPreconditioner(const CsrMatrix& s_tilde, const LuOptions& opt = {},
                               const TrisolveOptions& = {});

  [[nodiscard]] index_t size() const override { return n_; }
  void apply(std::span<const value_t> x, std::span<value_t> y) const override;

  /// apply() through caller-owned scratch (resized to n if short). The
  /// factors themselves are immutable after construction, so any number of
  /// threads may apply one preconditioner concurrently as long as each
  /// brings its own scratch — the serve layer's const-reuse contract.
  void apply_with_scratch(std::span<const value_t> x, std::span<value_t> y,
                          std::vector<value_t>& scratch) const;

  [[nodiscard]] long long factor_nnz() const { return lu_.fill_nnz(); }
  [[nodiscard]] double factor_seconds() const { return factor_seconds_; }
  /// Heap footprint of the factors — the serve cache charges this through
  /// SchurSolver::memory_bytes().
  [[nodiscard]] std::size_t memory_bytes() const {
    return lu_.memory_bytes() + colmap_.size() * sizeof(index_t);
  }

 private:
  index_t n_ = 0;
  std::vector<index_t> colmap_;  // fill-reducing permutation (new → old)
  LuFactors lu_;
  double factor_seconds_ = 0.0;
  mutable std::vector<value_t> scratch_;
};

}  // namespace pdslin
