// Composable pipeline invariant checkers with structured violation reports.
//
// Each checker recomputes one structural or numerical property of a pipeline
// stage from scratch — never through the code path being checked — and
// appends a Violation per defect found. The differential runner
// (check/differential.hpp), the fuzz driver (tools/pdslin_fuzz) and the unit
// tests all gate on CheckReport::ok(); the paper's Tables II–III consistency
// (partitioner output ↔ Schur assembly) is exactly the class of invariant
// checked here end-to-end.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "check/dense_oracle.hpp"
#include "core/schur_solver.hpp"
#include "hypergraph/partition_state.hpp"
#include "iterative/gmres.hpp"

namespace pdslin::check {

struct Violation {
  std::string checker;  // dotted id, e.g. "partition.cross_coupling"
  std::string detail;   // human-readable: what, where, expected vs got
  double magnitude = 0.0;  // severity proxy (error norm, count, …)
};

struct CheckReport {
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  void add(std::string checker, std::string detail, double magnitude = 0.0);
  /// True if some violation's checker id starts with `prefix`.
  [[nodiscard]] bool has(std::string_view prefix) const;
  /// One line per violation (capped), "" when ok.
  [[nodiscard]] std::string summary() const;
};

// ---------------------------------------------------------------------------
// Partition layer

/// DBBD partition validity against the ORIGINAL matrix:
///  - part labels in [0, k) ∪ {separator}, sizes consistent;
///  - perm/iperm mutually inverse bijections ordered block by block;
///  - domain_offset monotone and consistent with the label counts;
///  - separator correctness: A has no entry coupling two different
///    subdomain interiors (the DBBD zero blocks of paper Eq. (1)).
void check_partition(const CsrMatrix& a, const DbbdPartition& p,
                     CheckReport& rep);

/// Diff a bisection's incremental bookkeeping (pin counts, side weights,
/// cut cost maintained by apply_move) against a from-scratch recomputation.
void check_bisection_state(const Hypergraph& h, const HgBisection& b,
                           CheckReport& rep);

// ---------------------------------------------------------------------------
// Direct layer

/// ‖L·U − P·A‖_max ≤ rel_tol · ‖A‖_max for sparse LuFactors (dense diff;
/// A is the matrix that was factorized, any CSC up to the oracle limit).
void check_lu_residual(const CscMatrix& a, const LuFactors& f, double rel_tol,
                       CheckReport& rep);

/// The LU kernel contract (direct/lu.hpp): `f`, lu_factorize's factors of
/// `a`, must equal scalar_lu_factorize(a, opt) bitwise — row_perm, lower
/// and upper_t, signed zeros included. `id` names the factor in the report.
/// Returns the scalar factors; nullopt when the scalar kernel threw (a
/// reported violation, since the solver factored `a`).
std::optional<LuFactors> check_factors_match_scalar(const CscMatrix& a,
                                                    const LuOptions& opt,
                                                    const LuFactors& f,
                                                    const std::string& id,
                                                    CheckReport& rep);

// ---------------------------------------------------------------------------
// Core layer (factored solver)

struct SchurCheckOptions {
  /// Relative (to ‖S‖_max) mismatch tolerance. With zero drop thresholds
  /// the assembly is exact and the default is tight; callers running the
  /// default drop_wg/drop_s loosen it (the dropped mass is theirs).
  double rel_tol = 1e-9;
  /// Per-subdomain ‖L_ℓU_ℓ − P_ℓ D̂_ℓ‖ tolerance (check_subdomain_factors).
  double factor_rel_tol = 1e-8;
};

/// Schur-assembly consistency: the solver's S̃ (schur_tilde()) against the
/// dense oracle S = C − Σ F_ℓ D_ℓ⁻¹ E_ℓ recomputed from the original
/// matrix + partition. Skipped (no violation) when the oracle meets a
/// singular interior block — the pipeline's LU would have thrown first.
void check_schur_consistency(const SchurSolver& solver,
                             const SchurCheckOptions& opt, CheckReport& rep);

/// Per-subdomain factor residuals ‖L_ℓU_ℓ − P_ℓ D̂_ℓ‖ through the stored
/// colmap/rowmap orderings, plus interface dimension bookkeeping
/// (e_cols/f_rows sizes vs Ê/F̂ shapes vs separator bounds).
void check_subdomain_factors(const SchurSolver& solver, double rel_tol,
                             CheckReport& rep);

/// check_factors_match_scalar on every factor the solver holds: each D_ℓ,
/// rebuilt through its colmap, and S̃, ordered by the preconditioner's
/// colmap (its dense block read back as CSC). LU(S̃)'s apply of one vector
/// must also equal the CSC sweeps of the scalar factors bitwise.
void check_factor_kernels(const SchurSolver& solver, CheckReport& rep);

/// Everything checkable on a factored solver: partition validity,
/// subdomain factors, LU kernels, Schur consistency.
void check_solver(const SchurSolver& solver, const SchurCheckOptions& schur,
                  CheckReport& rep);

// ---------------------------------------------------------------------------
// Iterative layer

struct SolutionCheckOptions {
  /// A column whose reported residual claims convergence must have a true
  /// relative residual ≤ max(consistency_factor · reported, floor).
  double consistency_factor = 1e3;
  double floor = 1e-8;
};

/// Krylov honesty: per-column true residual ‖b − A x‖/‖b‖ versus the
/// residual the solver reported. Columns that did not claim convergence
/// are not judged (their reported residual is still required to be finite).
void check_solution(const CsrMatrix& a, std::span<const value_t> x,
                    std::span<const value_t> b,
                    const std::vector<GmresResult>& results, index_t nrhs,
                    const SolutionCheckOptions& opt, CheckReport& rep);

}  // namespace pdslin::check
