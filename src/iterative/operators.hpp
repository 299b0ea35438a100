// The Krylov layer's shared types: the linear-operator abstraction (the
// Schur system is solved matrix-free, paper §I: "a preconditioned iterative
// solver is typically used to solve (2) without explicitly forming S") and
// the one options struct every Krylov method reads.
#pragma once

#include <span>

#include "sparse/csr.hpp"

namespace pdslin {

/// Krylov method for the Schur complement system (Eq. (2)).
enum class KrylovMethod {
  Gmres,     // restarted GMRES (PDSLin's default)
  Bicgstab,  // short-recurrence alternative
};

/// The options of every Krylov solve (iterative/krylov.hpp); each method
/// reads the fields it has.
struct KrylovOptions {
  KrylovMethod method = KrylovMethod::Gmres;
  int restart = 60;  // GMRES's basis length; BiCGSTAB has none
  int max_iterations = 1000;
  double rel_tolerance = 1e-12;
};

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

}  // namespace pdslin
