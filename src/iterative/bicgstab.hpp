// BiCGSTAB with right preconditioning — the alternative Krylov method
// PDSLin offers for the Schur system (short recurrences: constant memory
// instead of GMRES's restart-length basis).
#pragma once

#include <span>
#include <vector>

#include "iterative/operators.hpp"

namespace pdslin {

struct BicgstabResult {
  int iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;
  /// A ρ ≈ 0 / ω ≈ 0 / overflow breakdown ended the recurrence early. The
  /// returned x and relative_residual are the last finite iterate — never
  /// NaN/Inf.
  bool breakdown = false;
};

/// Preallocated BiCGSTAB state (the eight recurrence vectors plus the
/// last-finite-iterate snapshot). Reused across solves so the steady state
/// is allocation-free; `allocations` counts (re)allocation events exactly
/// like GmresWorkspace::allocations.
struct BicgstabWorkspace {
  std::vector<value_t> r, r0, p, v, s, t, phat, shat;
  std::vector<value_t> x_snapshot;
  long long allocations = 0;

  void ensure(index_t n);
};

/// Solve A x = b with right-preconditioned BiCGSTAB; `precond` may be null.
/// `x` is the initial guess and the output. On breakdown (ρ ≈ 0, ω ≈ 0, or
/// a non-finite recurrence quantity) the solve stops and returns the last
/// finite iterate with `breakdown = true` instead of propagating NaN/Inf
/// through x. `ws` (optional) supplies reusable scratch. opt.method and
/// opt.restart are not read.
BicgstabResult bicgstab(const LinearOperator& a, const LinearOperator* precond,
                        std::span<const value_t> b, std::span<value_t> x,
                        const KrylovOptions& opt = {},
                        BicgstabWorkspace* ws = nullptr);

}  // namespace pdslin
