// The one Krylov entry point: the Schur solve (core/schur_solver.cpp) and
// the serve layer's unpreconditioned fallback (serve/service.cpp) both call
// krylov_solve, which runs the method KrylovOptions names.
#pragma once

#include <span>

#include "iterative/bicgstab.hpp"
#include "iterative/gmres.hpp"

namespace pdslin {

/// Solve A x = b by opt.method, right-preconditioned (`precond` may be
/// null); `x` is the initial guess and the output. A BiCGSTAB solve reports
/// its iterations, relative residual and convergence flag; after a
/// breakdown these describe its last finite iterate. `gmres_ws` and
/// `bicgstab_ws` (optional) supply the reusable scratch of the method that
/// runs.
GmresResult krylov_solve(const LinearOperator& a, const LinearOperator* precond,
                         std::span<const value_t> b, std::span<value_t> x,
                         const KrylovOptions& opt,
                         GmresWorkspace* gmres_ws = nullptr,
                         BicgstabWorkspace* bicgstab_ws = nullptr);

}  // namespace pdslin
