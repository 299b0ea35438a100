// Linear-operator abstraction for the Krylov layer: the Schur system is
// solved matrix-free (paper §I: "a preconditioned iterative solver is
// typically used to solve (2) without explicitly forming S").
#pragma once

#include <span>

#include "sparse/csr.hpp"

namespace pdslin {

/// Abstract y = Op(x) for square operators. The Krylov solvers never apply
/// an operator to an exactly zero vector: they take Op·0 = +0.0 in every
/// entry, which holds for any operator with finite entries.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;
  [[nodiscard]] virtual index_t size() const = 0;
  virtual void apply(std::span<const value_t> x, std::span<value_t> y) const = 0;
};

/// True when every entry of x is zero (of either sign).
[[nodiscard]] inline bool is_zero(std::span<const value_t> x) {
  for (value_t v : x) {
    if (v != 0.0) return false;
  }
  return true;
}

/// Operator wrapping an explicit sparse matrix.
class MatrixOperator final : public LinearOperator {
 public:
  explicit MatrixOperator(const CsrMatrix& a);
  [[nodiscard]] index_t size() const override { return a_.rows; }
  void apply(std::span<const value_t> x, std::span<value_t> y) const override;

 private:
  const CsrMatrix& a_;
};

/// Identity (used as the trivial preconditioner).
class IdentityOperator final : public LinearOperator {
 public:
  explicit IdentityOperator(index_t n) : n_(n) {}
  [[nodiscard]] index_t size() const override { return n_; }
  void apply(std::span<const value_t> x, std::span<value_t> y) const override;

 private:
  index_t n_;
};

}  // namespace pdslin
