// Per-subdomain preconditioner contributions (paper §I):
//   P_ℓ D_ℓ P̄_ℓ = L_ℓ U_ℓ,   W_ℓ = F̂_ℓ P̄_ℓ U_ℓ⁻¹,   G_ℓ = L_ℓ⁻¹ P_ℓ Ê_ℓ,
//   T̃_ℓ = W̃_ℓ G̃_ℓ  (thresholded),
// followed by the global gather Ŝ = C − Σ_ℓ R_F T̃_ℓ R_Eᵀ and the final
// sparsification S̃.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/subdomain.hpp"
#include "direct/kernels.hpp"
#include "direct/lu.hpp"
#include "direct/multirhs.hpp"
#include "direct/trisolve.hpp"

namespace pdslin {

struct SchurAssemblyOptions {
  /// Relative (per-column) drop threshold for W̃ and G̃.
  double drop_wg = 1e-9;
  /// Relative drop threshold for S̃ (diagonal always kept).
  double drop_s = 1e-10;
  index_t rhs_block_size = 60;
  /// Hypergraph runs the §IV-B ordering with the HypergraphRhsOptions
  /// defaults and parts of rhs_block_size columns.
  RhsOrdering rhs_ordering = RhsOrdering::Postorder;
  LuOptions lu;
  /// Inner workers per subdomain — the second level of the paper's
  /// np = k × (np/k) hierarchy. Parallelizes the multi-RHS triangular
  /// solves (across RHS blocks), the T̃ = W̃G̃ product (across rows) and the
  /// threshold-drop sweeps; 1 = serial. Results are bitwise identical for
  /// any value.
  unsigned inner_threads = 1;
  /// Unused (see TrisolveOptions).
  TrisolveOptions trisolve;
};

/// Everything the solver needs to apply D_ℓ⁻¹ later, plus T̃_ℓ and the
/// measured statistics.
struct SubdomainFactorization {
  LuFactors lu;
  /// Combined column ordering: colmap[new] = old local interior index
  /// (fill-reducing ∘ optional postorder).
  std::vector<index_t> colmap;
  /// Combined row map: rowmap[k] = old local interior row feeding pivot
  /// row k (colmap ∘ LU row permutation).
  std::vector<index_t> rowmap;
  /// F̂-row × Ê-col local update matrix. SchurSolver::factor() frees it
  /// after the gather; assemble_subdomain's own result keeps it.
  CsrMatrix t_tilde;
  /// max|T̃_ℓ| over its stored values (NaN skipped), kept past the release
  /// for check_schur_consistency's tolerance scale.
  double t_tilde_max_abs = 0.0;

  // --- measurements ---
  double order_seconds = 0.0;
  double factor_seconds = 0.0;
  double solve_g_seconds = 0.0;  // triangular solves for G (incl. symbolic)
  double solve_w_seconds = 0.0;
  double reorder_seconds = 0.0;  // RHS-ordering computation itself
  double gemm_seconds = 0.0;
  MultiRhsStats g_stats;
  MultiRhsStats w_stats;
  long long g_nnzcol = 0;  // Table III quantities (after drop: of G̃)
  long long g_nnzrow = 0;
  long long nnz_ehat = 0;
  long long lu_nnz = 0;
};

/// T̃ = W̃·G̃ (paper Eq. (5)) with W̃ given by the CSC of its transpose (whose
/// arrays are W̃'s CSR) and G̃ by columns; bitwise spgemm(W̃, G̃), the
/// Gustavson product. Each G̃ row is kept as a dense segment from its first
/// to its last column, each W̃ row is accumulated into a dense row that
/// starts at +0.0, in W̃'s stored order (panel::segment_row_product), and
/// the output pattern is the OR of the rows' column bitmasks
/// (docs/ALGORITHMS.md §4). spgemm runs instead when W̃ holds a non-finite
/// value, when G̃ stores an entry twice, or when the segments would take
/// more than 4× G̃'s bytes. Row-parallel over `threads`, with the same bits
/// for any count; adds the Gustavson multiply-add count to the spgemm.flops
/// counter either way. `kernels` names one path's build of the row kernel
/// (tests and benches); by default the dispatching one runs.
CsrMatrix interface_product(const CscMatrix& wt, const CscMatrix& g,
                            unsigned threads = 1,
                            const panel::KernelTable* kernels = nullptr);

/// Factor D_ℓ and form T̃_ℓ.
SubdomainFactorization assemble_subdomain(const Subdomain& sub,
                                          const SchurAssemblyOptions& opt);

/// Gather: Ŝ = C − Σ_ℓ T̃_ℓ mapped through (f_rows, e_cols), then drop-small
/// (keeping the diagonal) → S̃. The drop sweep is row-parallel when
/// threads > 1 (the gather itself is a serial reduction).
CsrMatrix assemble_schur(const CsrMatrix& c_block,
                         const std::vector<Subdomain>& subs,
                         const std::vector<SubdomainFactorization>& facts,
                         double drop_s, unsigned threads = 1);

/// Per-column relative threshold dropping for CSC blocks (W̃/G̃ step);
/// column-parallel when threads > 1.
CscMatrix drop_small_columns(const CscMatrix& a, double rel_tol,
                             unsigned threads = 1);

}  // namespace pdslin
