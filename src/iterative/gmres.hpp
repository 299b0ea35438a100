// Restarted GMRES with right preconditioning — the Krylov solver PDSLin
// applies to the Schur complement system S y = ĝ (paper Eq. (2)).
#pragma once

#include <span>
#include <vector>

#include "iterative/operators.hpp"

namespace pdslin {

struct GmresResult {
  int iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;
};

/// Preallocated GMRES state: the Krylov basis, the Hessenberg system in
/// Givens form and the apply scratch. A caller that solves repeatedly (the
/// Schur solve path, multi-RHS batches) keeps one workspace alive so no
/// per-solve / per-restart heap allocation happens after the first solve.
struct GmresWorkspace {
  std::vector<std::vector<value_t>> v;  // Krylov basis, m+1 vectors of size n
  std::vector<std::vector<value_t>> h;  // Hessenberg columns, (m+1) × m
  std::vector<value_t> cs, sn, g, y;    // Givens rotations + RHS + LS solution
  std::vector<value_t> tmp, z;          // apply / preconditioner scratch
  /// Number of buffers (re)allocated by ensure() so far. Flat across
  /// repeated same-shape solves — the solver exports it through
  /// SolverStats::solve_workspace_allocs so tests can pin allocation-free
  /// steady state.
  long long allocations = 0;

  /// Grow (never shrink) every buffer to fit an n-dim solve at restart m.
  void ensure(index_t n, int m);
};

/// Solve A x = b with right-preconditioned restarted GMRES:
/// minimizes ||b − A M⁻¹ u|| over the Krylov space, x = M⁻¹ u.
/// `precond` may be null (unpreconditioned). `x` is both the initial guess
/// and the output. `ws` (optional) supplies reusable scratch; when null a
/// local workspace is allocated for the call. opt.method is not read.
GmresResult gmres(const LinearOperator& a, const LinearOperator* precond,
                  std::span<const value_t> b, std::span<value_t> x,
                  const KrylovOptions& opt = {}, GmresWorkspace* ws = nullptr);

}  // namespace pdslin
