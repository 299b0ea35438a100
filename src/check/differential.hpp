// Differential pipeline runner: execute the full hybrid-solver pipeline on
// one CaseSpec and diff every stage against the dense oracle and the
// structural invariant checkers. The result is a CheckReport — empty means
// the pipeline agreed with the oracle on this case under this config.
//
// Stage diffs per run:
//   partition      — cover/disjointness, perm bijection, DBBD zero blocks
//   bisection      — hypergraph incremental bookkeeping vs from-scratch
//   subdomain LUs  — ‖L_ℓU_ℓ − P_ℓ D̂_ℓ‖ through the stored orderings
//   LU kernels     — every D_ℓ and S̃ factor bitwise equal to the scalar
//                    kernel's refactorization, and LU(S̃)'s apply to its
//                    CSC sweeps
//   Schur assembly — S̃ vs dense S = C − Σ F_ℓ D_ℓ⁻¹ E_ℓ (exact when the
//                    spec disables drops, toleranced otherwise)
//   Krylov solve   — reported residual vs true residual, solution vs the
//                    dense oracle solve (condition-gated)
//   determinism    — threads > 1 must be bitwise identical to serial
//   serve          — served answers bitwise identical to direct solves,
//                    cache hits bitwise identical to cold
#pragma once

#include "check/generators.hpp"
#include "check/invariants.hpp"

namespace pdslin::check {

struct DifferentialOptions {
  /// Schur tolerance when the spec runs exact (zero-drop) assembly.
  double exact_schur_rel_tol = 1e-9;
  /// Schur tolerance under the default drop thresholds (the dropped mass
  /// plus its propagation through T̃ = W̃G̃ is the caller's business).
  double dropped_schur_rel_tol = 5e-5;
  SolutionCheckOptions solution;
  /// Solution-vs-oracle comparisons are skipped above this condition proxy
  /// (forward error is not the pipeline's fault there); residual honesty
  /// and structural checks always run.
  double max_condition_for_solution = 1e8;
  /// A pipeline throw is tolerated when the oracle itself is singular or
  /// the condition proxy exceeds this.
  double max_condition_for_throw = 1e10;
  bool check_determinism = true;
  bool check_bisection = true;
};

struct DifferentialResult {
  CheckReport report;
  bool oracle_singular = false;
  bool solver_threw = false;
  std::string solver_error;
  double condition_estimate = 0.0;
  bool all_converged = false;
  index_t n = 0;  // actual unknown count after family rounding

  [[nodiscard]] bool ok() const { return report.ok(); }
};

DifferentialResult run_differential(const CaseSpec& spec,
                                    const DifferentialOptions& opt = {});

}  // namespace pdslin::check
