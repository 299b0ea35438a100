// Schur-complement preconditioner: LU factors of the sparsified S̃ applied
// as M⁻¹ inside GMRES (paper §I: "the LU factors of S̃ are computed … and
// used as a preconditioner for solving (2)"). The factors' trailing block
// is kept dense from the column where that is no larger than CSC
// (BlockLuFactors, docs/ALGORITHMS.md §2.5), written there by the panel
// kernel itself; the apply is bitwise the CSC sweeps either way. A Krylov solve takes it through PrecondView, which
// binds the shared factors to the caller's scratch.
#pragma once

#include "direct/lu.hpp"
#include "direct/trisolve.hpp"
#include "iterative/operators.hpp"

namespace pdslin {

class SchurPreconditioner {
 public:
  /// Factorizes S̃ (throws pdslin::Error if singular) in the minimum-degree
  /// order of |S̃| + |S̃ᵀ| (analyze_pattern). The third parameter is unused
  /// (see TrisolveOptions).
  explicit SchurPreconditioner(const CsrMatrix& s_tilde, const LuOptions& opt = {},
                               const TrisolveOptions& = {});

  [[nodiscard]] index_t size() const { return n_; }

  /// y = M⁻¹x through caller-owned scratch (resized to n if short). The
  /// factors themselves are immutable after construction, so any number of
  /// threads may apply one preconditioner concurrently as long as each
  /// brings its own scratch — the serve layer's const-reuse contract.
  void apply_with_scratch(std::span<const value_t> x, std::span<value_t> y,
                          std::vector<value_t>& scratch) const;

  /// The fill-reducing ordering S̃ was factored in: colmap[new] = old.
  [[nodiscard]] const std::vector<index_t>& colmap() const { return colmap_; }
  /// The factors of S̃ permuted symmetrically by colmap().
  [[nodiscard]] const BlockLuFactors& factors() const { return lu_; }
  /// Stored entries of L + U, as the CSC factors held them.
  [[nodiscard]] long long factor_nnz() const { return lu_.stored_nnz; }
  /// Wall seconds of the whole construction: the analysis and the numeric
  /// factorization (permutation, panel kernel, dense block).
  [[nodiscard]] double factor_seconds() const { return factor_seconds_; }
  /// The pattern analysis's share of factor_seconds(): |S̃| + |S̃ᵀ|,
  /// minimum degree, the permuted pattern and its symbolic factor.
  [[nodiscard]] double analyze_seconds() const { return analyze_seconds_; }
  /// Heap footprint of the factors — the serve cache charges this through
  /// SchurSolver::memory_bytes().
  [[nodiscard]] std::size_t memory_bytes() const {
    return lu_.memory_bytes() + colmap_.size() * sizeof(index_t);
  }

 private:
  index_t n_ = 0;
  std::vector<index_t> colmap_;  // fill-reducing permutation (new → old)
  BlockLuFactors lu_;
  double factor_seconds_ = 0.0;
  double analyze_seconds_ = 0.0;
};

/// The LinearOperator of a shared (const) SchurPreconditioner bound to a
/// caller-owned scratch buffer, so concurrent solves never share apply
/// state.
class PrecondView final : public LinearOperator {
 public:
  PrecondView(const SchurPreconditioner& p, std::vector<value_t>& scratch)
      : p_(p), scratch_(scratch) {}
  [[nodiscard]] index_t size() const override { return p_.size(); }
  void apply(std::span<const value_t> x, std::span<value_t> y) const override {
    p_.apply_with_scratch(x, y, scratch_);
  }

 private:
  const SchurPreconditioner& p_;
  std::vector<value_t>& scratch_;
};

}  // namespace pdslin
