// PDSLin-style hybrid solver facade (the system of paper §I).
//
// Pipeline: partition (NGD baseline or the paper's RHB) → doubly-bordered
// form → per-subdomain LU + interface triangular solves → approximate global
// Schur complement S̃ → LU(S̃) preconditioner → GMRES on the implicit Schur
// operator → interior back-substitution.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "core/config.hpp"
#include "core/dbbd.hpp"
#include "core/preconditioner.hpp"
#include "core/rhb.hpp"
#include "core/schur_assembly.hpp"
#include "core/stats.hpp"
#include "core/subdomain.hpp"
#include "iterative/krylov.hpp"
#include "partition/types.hpp"

namespace pdslin {

struct SolverOptions {
  PartitionMethod partitioning = PartitionMethod::RHB;
  index_t num_subdomains = 8;  // power of two (the paper uses 8 and 32)
  CutMetric metric = CutMetric::Soed;
  RhbConstraintMode constraints = RhbConstraintMode::SingleW1;
  bool rhb_dynamic_weights = true;
  /// Ablation: weight NGD's vertices by row nonzero counts so the baseline
  /// balances nnz(D) too — isolates RHB's hypergraph/column-cut advantage
  /// from mere vertex weighting.
  bool ngd_weighted = false;
  double partition_epsilon = 0.10;
  /// Value-aware partitioning (--partition-values, docs/PARTITION.md):
  /// weight hyperedges/graph edges by log- or linearly-bucketed |a_ij|
  /// magnitudes so the partitioner prefers cutting weak couplings
  /// (Vecharynski–Saad–Sosonkina). Off = pattern-only (the default).
  /// Setup-affecting: part of the serve fingerprint.
  partition::ValueMode partition_values = partition::ValueMode::Off;
  SchurAssemblyOptions assembly;
  /// The Schur system's Krylov solve (iterative/krylov.hpp); solve-phase
  /// only, so not part of the serve fingerprint.
  KrylovOptions krylov;
  /// The one executed thread level, the paper's §V configuration of one
  /// worker per subdomain: at most this many subdomain tasks run
  /// concurrently (on the shared pool) when > 1 — in factor() *and* in
  /// every iterative-solve subdomain sweep (the implicit Schur operator, the
  /// ĝ reduction, the back-substitution) — and the partition recursion
  /// spawns its subtrees. The work inside one subdomain is serial.
  /// Per-subdomain times are measured either way, so the modeled parallel
  /// time in stats() is meaningful on any host. Results are bitwise
  /// independent of the thread count (deterministic block-ordered
  /// stitching of the separator reductions).
  unsigned threads = 1;
  std::uint64_t seed = 1;
};

/// The request check, shared by SchurSolver (each part where its input
/// arrives: A in the constructor, the incidence in setup(), b in every
/// solve) and serve::SolveService::submit (all parts, before queueing).
/// Each throws pdslin::Error with a message that starts "invalid request: ".
/// A must be square, pass CsrMatrix::validate(), store no column twice in
/// one row and hold values, all finite.
void check_request_matrix(const CsrMatrix& a);
/// The incidence (structural factor) must pass validate() and have n columns.
void check_request_incidence(const CsrMatrix& m, index_t n);
/// Every value of b must be finite.
void check_request_rhs(std::span<const value_t> b);

/// pattern_hash of an incidence, 0 for none (nullptr or no rows): what
/// setup() records in DbbdPartition::incidence_hash.
std::uint64_t incidence_hash_of(const CsrMatrix* incidence);

/// One entry of the SolverOptions field table (for_each_option).
template <typename T>
struct OptionField {
  const char* key;  // RunReport config key
  T& value;         // the member; const when visiting const options
  /// The field can change what set-up computes (the partition, the factors,
  /// S̃): exactly these fields make up serve::setup_options_hash. Thread
  /// counts are bitwise neutral and the Krylov fields act only in the
  /// solve, so requests differing in them share one cached set-up.
  bool setup;
};

/// The SolverOptions field table: calls f(OptionField{...}) once per
/// settable field, in declaration order. The serve fingerprint and the run
/// report are visitors over this table, so a new field is named here and
/// nowhere else. `Opt` is SolverOptions or const SolverOptions.
template <typename Opt, typename F>
void for_each_option(Opt& o, F&& f) {
  static_assert(std::is_same_v<std::remove_const_t<Opt>, SolverOptions>);
  constexpr bool kSetup = true, kOther = false;
  f(OptionField{"partitioning", o.partitioning, kSetup});
  f(OptionField{"num_subdomains", o.num_subdomains, kSetup});
  f(OptionField{"metric", o.metric, kSetup});
  f(OptionField{"constraints", o.constraints, kSetup});
  f(OptionField{"rhb_dynamic_weights", o.rhb_dynamic_weights, kSetup});
  f(OptionField{"ngd_weighted", o.ngd_weighted, kSetup});
  f(OptionField{"epsilon", o.partition_epsilon, kSetup});
  f(OptionField{"partition_values", o.partition_values, kSetup});
  f(OptionField{"drop_wg", o.assembly.drop_wg, kSetup});
  f(OptionField{"drop_s", o.assembly.drop_s, kSetup});
  f(OptionField{"rhs_block_size", o.assembly.rhs_block_size, kSetup});
  f(OptionField{"rhs_ordering", o.assembly.rhs_ordering, kSetup});
  f(OptionField{"lu_pivot_tol", o.assembly.lu.pivot_tol, kSetup});
  f(OptionField{"lu_min_pivot", o.assembly.lu.min_pivot, kSetup});
  f(OptionField{"krylov", o.krylov.method, kOther});
  f(OptionField{"krylov_restart", o.krylov.restart, kOther});
  f(OptionField{"krylov_max_iterations", o.krylov.max_iterations, kOther});
  f(OptionField{"krylov_rel_tolerance", o.krylov.rel_tolerance, kOther});
  f(OptionField{"threads", o.threads, kOther});
  f(OptionField{"seed", o.seed, kSetup});
}

class SchurSolver {
 public:
  /// The matrix is copied; it must pass check_request_matrix().
  SchurSolver(CsrMatrix a, SolverOptions opt);

  /// Phase 1 — compute the DBBD partition (Eq. (1)). RHB consumes the
  /// structural factor M; pass the generator's incidence or nullptr to build
  /// a clique cover internally. NGD ignores `incidence`; a nonempty one must
  /// pass check_request_incidence() either way, and its hash is recorded in
  /// partition().incidence_hash. The second
  /// parameter is not read: the partition depends on the matrix, the
  /// incidence and the options alone. It stays only for callers that still
  /// pass problem coordinates.
  void setup(const CsrMatrix* incidence = nullptr,
             std::span<const double> coords = {});

  /// Phase 1, symbolic-reuse variant: adopt a partition computed for another
  /// matrix with the same pattern (the serve layer's factorization cache
  /// keys partitions by structural fingerprint). Skips the partitioner
  /// entirely; factor() must still run for the new numeric values.
  void adopt_partition(DbbdPartition dbbd);

  /// Phase 2 — subdomain factorizations (opt.threads of them at a time,
  /// each serial inside), S̃ assembly, LU(S̃). Each T̃_ℓ is
  /// released after the gather (factorizations()[ℓ].t_tilde is empty on
  /// return). Also preallocates the per-subdomain solve workspaces, so the
  /// solve phase runs allocation-free. After factor() returns, the setup is immutable:
  /// every solve entry point below is const and reentrant as long as each
  /// concurrent caller brings its own SolveContext.
  void factor();

  /// Everything one subdomain's solve-path sweep mutates (the per-worker
  /// scratch idiom of direct/multirhs.cpp): the packed interface gather,
  /// f_ℓ, the D⁻¹Ê·v result, the triangular-solve permutation scratch, the
  /// F̂·z product, and D⁻¹f kept from the ĝ reduction for the
  /// back-substitution.
  struct SubdomainSolveScratch {
    std::vector<value_t> v;       // |e_cols| packed interface values
    std::vector<value_t> t;       // f_ℓ for the ĝ reduction (interior dim)
    std::vector<value_t> z;       // D⁻¹Ê·v (interior dim)
    std::vector<value_t> w;       // permuted trisolve scratch (interior dim)
    std::vector<value_t> r;       // F̂·z (|f_rows|)
    std::vector<value_t> dinv_f;  // D⁻¹·f (interior dim)
  };

  /// The complete mutable state of one solve path. A factored solver holds
  /// no other solve-time mutable state, so N threads may call the const
  /// solve()/solve_multi() overloads concurrently against one setup — each
  /// with its own SolveContext — and every one gets results bitwise
  /// identical to a serial solve (regression-tested in tests/test_serve.cpp).
  struct SolveContext {
    std::vector<SubdomainSolveScratch> sub;
    std::vector<value_t> ghat, y;       // separator RHS / solution
    std::vector<value_t> precond;       // LU(S̃) apply scratch
    std::vector<value_t> resid;         // full-system A·x for the true residual
    GmresWorkspace gmres;
    BicgstabWorkspace bicgstab;
    /// Buffer (re)allocation events (same counting discipline as
    /// GmresWorkspace::allocations); flat across repeated same-shape solves.
    long long scratch_allocs = 0;
    /// Implicit-Schur operator applications recorded by solves through this
    /// context (the per-context replacement for SolverStats counters).
    long long applies = 0;
    [[nodiscard]] long long allocations() const {
      return scratch_allocs + gmres.allocations + bicgstab.allocations;
    }
  };

  /// Size (grow-only, idempotent) every context buffer for this setup.
  /// Called automatically by the solve paths; callers that want a strictly
  /// allocation-free first solve can prepare the context up front.
  void prepare_context(SolveContext& ctx) const;

  /// Phase 3 — solve A x = b (callable repeatedly; no heap allocation in
  /// the Schur operator after the first call). b must pass
  /// check_request_rhs(). Uses the solver's own
  /// context and updates stats(); NOT reentrant — use the const overloads
  /// for concurrent solves.
  GmresResult solve(std::span<const value_t> b, std::span<value_t> x);

  /// Batched phase 3 — solve A X = B for nrhs right-hand sides stored
  /// column-major (column j occupies [j·n, (j+1)·n) of `b` / `x`). One
  /// operator, preconditioner and workspace set is shared across columns;
  /// per-column results are returned in order.
  std::vector<GmresResult> solve_multi(std::span<const value_t> b,
                                       std::span<value_t> x, index_t nrhs);

  /// Reentrant solve against a caller-owned context: const, touches no
  /// solver state, safe to call from any number of threads concurrently
  /// (one context per thread). Does not update stats().
  GmresResult solve(std::span<const value_t> b, std::span<value_t> x,
                    SolveContext& ctx) const;
  std::vector<GmresResult> solve_multi(std::span<const value_t> b,
                                       std::span<value_t> x, index_t nrhs,
                                       SolveContext& ctx) const;

  [[nodiscard]] const SolverStats& stats() const { return stats_; }
  [[nodiscard]] const CsrMatrix& matrix() const { return a_; }
  [[nodiscard]] const DbbdPartition& partition() const { return dbbd_; }
  [[nodiscard]] const std::vector<Subdomain>& subdomains() const { return subs_; }
  [[nodiscard]] const std::vector<SubdomainFactorization>& factorizations() const {
    return facts_;
  }
  [[nodiscard]] const CsrMatrix& schur_tilde() const { return s_tilde_; }
  /// LU(S̃) once factor() has run; nullptr before it and when there is no
  /// separator.
  [[nodiscard]] const SchurPreconditioner* preconditioner() const {
    return precond_.get();
  }
  /// Separator block C of Eq. (1) (separator-local numbering) — const view
  /// for the differential checkers (src/check/invariants.hpp).
  [[nodiscard]] const CsrMatrix& separator_block() const { return c_block_; }
  [[nodiscard]] const SolverOptions& options() const { return opt_; }
  [[nodiscard]] bool factored() const { return factor_done_; }

  /// Approximate resident bytes of the completed setup: matrix + partition
  /// + per-subdomain factors/interfaces + S̃ + LU(S̃) (its own
  /// memory_bytes()). T̃_ℓ is freed by factor() after the gather and is not
  /// charged. The serve-layer factorization cache charges entries by this
  /// number.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Apply D_ℓ⁻¹ (dense RHS) through the stored factors. Public for tests.
  void domain_solve(index_t l, std::span<const value_t> b,
                    std::span<value_t> z) const;

  /// out = S·y = C·y − Σ_ℓ F̂_ℓ D_ℓ⁻¹ Ê_ℓ (R_Eᵀ y), the matrix-free operator
  /// the Krylov solve applies, through ctx's scratch (counted in
  /// ctx.applies; ctx must be prepared). Public for tests.
  void apply_schur(std::span<const value_t> y, std::span<value_t> out,
                   SolveContext& ctx) const;

 private:
  class SchurOperator;

  /// The factor positions one subdomain's interface sweeps visit, recorded
  /// by factor(). Ê_ℓ's columns are sparse right-hand sides, and only F̂_ℓ's
  /// rows of D_ℓ⁻¹Ê_ℓ are read (paper §IV).
  struct SweepLists {
    /// Ascending: the L positions that Ê_ℓ's nonempty rows reach. After the
    /// forward solve of any Ê_ℓ·v, every other position holds +0.0.
    std::vector<index_t> reach;
    /// Ascending: the U rows at F̂_ℓ's nonzero columns, closed under U's
    /// rows — the rows of the backward solve that F̂_ℓ's product depends on.
    std::vector<index_t> need;
  };

  /// domain_solve through caller-provided scratch (no allocation).
  void domain_solve_scratch(index_t l, std::span<const value_t> b,
                            std::span<value_t> z,
                            std::vector<value_t>& w) const;
  /// The sweep lists of one factored subdomain.
  static SweepLists sweep_lists(const Subdomain& sub,
                                const SubdomainFactorization& f);
  /// ws.z = D_ℓ⁻¹ Ê_ℓ ws.v, the forward sweep over the reach only. With
  /// `need_only` the backward sweep computes only the `need` rows and z is
  /// written only there; otherwise z is complete.
  void interface_solve(index_t l, SubdomainSolveScratch& ws,
                       bool need_only) const;
  /// Run body(l) for every subdomain, fanned out over opt_.threads when
  /// > 1 (serial otherwise). Used by the operator apply, the ĝ reduction
  /// and the back-substitution.
  void for_each_subdomain(const std::function<void(int)>& body) const;
  /// One column of the batched solve; assumes the context is prepared.
  GmresResult solve_column(const SchurOperator& op, std::span<const value_t> b,
                           std::span<value_t> x, SolveContext& ctx) const;

  CsrMatrix a_;
  SolverOptions opt_;
  DbbdPartition dbbd_;
  std::vector<Subdomain> subs_;
  std::vector<SubdomainFactorization> facts_;
  std::vector<SweepLists> sweeps_;
  CsrMatrix c_block_;
  CsrMatrix s_tilde_;
  std::unique_ptr<SchurPreconditioner> precond_;
  SolverStats stats_;
  bool setup_done_ = false;
  bool factor_done_ = false;

  /// Context backing the non-const convenience solve path (stats-updating).
  SolveContext ctx_;
};

}  // namespace pdslin
