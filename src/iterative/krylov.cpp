#include "iterative/krylov.hpp"

namespace pdslin {

GmresResult krylov_solve(const LinearOperator& a, const LinearOperator* precond,
                         std::span<const value_t> b, std::span<value_t> x,
                         const KrylovOptions& opt, GmresWorkspace* gmres_ws,
                         BicgstabWorkspace* bicgstab_ws) {
  if (opt.method == KrylovMethod::Gmres) {
    return gmres(a, precond, b, x, opt, gmres_ws);
  }
  const BicgstabResult r = bicgstab(a, precond, b, x, opt, bicgstab_ws);
  GmresResult res;
  res.iterations = r.iterations;
  res.relative_residual = r.relative_residual;
  res.converged = r.converged;
  return res;
}

}  // namespace pdslin
