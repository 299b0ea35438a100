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
#include <optional>
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
#include "iterative/bicgstab.hpp"
#include "iterative/gmres.hpp"
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
  /// Partitioning-engine selection (src/partition): Multilevel runs the
  /// multilevel recursion (degrading under the budget), Geometric forces the
  /// O(n log n) coordinate/streaming fallback everywhere.
  partition::Engine partition_engine = partition::Engine::Multilevel;
  /// Wall-clock budget for the partition phase (partition::Budget::max_ms
  /// sentinel semantics: 0 = unlimited, < 0 = exhausted at entry). Changes
  /// partition quality, never correctness: degraded subtrees still produce a
  /// valid DBBD input.
  double partition_budget_ms = 0.0;
  /// partition::Budget::min_quality — fraction of the top bisection levels
  /// immune to budget degradation.
  double partition_min_quality = 0.0;
  /// Value-aware partitioning (--partition-values, docs/PARTITION.md):
  /// weight hyperedges/graph edges by log- or linearly-bucketed |a_ij|
  /// magnitudes so the partitioner prefers cutting weak couplings
  /// (Vecharynski–Saad–Sosonkina). Off = pattern-only (the default).
  /// Setup-affecting: part of the serve fingerprint.
  partition::ValueMode partition_values = partition::ValueMode::Off;
  SchurAssemblyOptions assembly;
  KrylovMethod krylov = KrylovMethod::Gmres;
  GmresOptions gmres;
  BicgstabOptions bicgstab;
  /// Outer level of the paper's np = k × (np/k) processor layout: at most
  /// this many subdomain tasks run concurrently (on the shared pool) when
  /// > 1 — in factor() *and* in every iterative-solve subdomain sweep (the
  /// implicit Schur operator, the ĝ reduction, the back-substitution). The
  /// inner level — workers per subdomain — is assembly.inner_threads;
  /// split_thread_budget() derives both from a flat budget. Per-subdomain
  /// times are measured either way, so the modeled parallel time in
  /// stats() is meaningful on any host. Solve results are bitwise
  /// independent of the thread count (deterministic block-ordered
  /// stitching of the separator reductions).
  unsigned threads = 1;
  std::uint64_t seed = 1;
};

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
  /// Enums and index counts lie in [0, *last]; every other field may take
  /// any value of its type.
  std::optional<std::remove_const_t<T>> last{};
};

/// `last` of the index-count fields.
inline constexpr index_t kMaxIndexOption = index_t{1} << 30;

/// The SolverOptions field table: calls f(OptionField{...}) once per
/// settable field, in declaration order. The serve fingerprint, the fleet
/// wire codec and the run report are visitors over this table, so a new
/// field is named here and nowhere else. `Opt` is SolverOptions or
/// const SolverOptions.
template <typename Opt, typename F>
void for_each_option(Opt& o, F&& f) {
  static_assert(std::is_same_v<std::remove_const_t<Opt>, SolverOptions>);
  constexpr bool kSetup = true, kOther = false;
  constexpr index_t kIndex = kMaxIndexOption;
  f(OptionField{"partitioning", o.partitioning, kSetup, PartitionMethod::RHB});
  f(OptionField{"num_subdomains", o.num_subdomains, kSetup, kIndex});
  f(OptionField{"metric", o.metric, kSetup, CutMetric::Soed});
  f(OptionField{"constraints", o.constraints, kSetup,
                RhbConstraintMode::MultiW1W2});
  f(OptionField{"rhb_dynamic_weights", o.rhb_dynamic_weights, kSetup});
  f(OptionField{"ngd_weighted", o.ngd_weighted, kSetup});
  f(OptionField{"epsilon", o.partition_epsilon, kSetup});
  f(OptionField{"partition_engine", o.partition_engine, kSetup,
                partition::Engine::Geometric});
  f(OptionField{"partition_budget_ms", o.partition_budget_ms, kSetup});
  f(OptionField{"partition_min_quality", o.partition_min_quality, kSetup});
  f(OptionField{"partition_values", o.partition_values, kSetup,
                partition::ValueMode::LogAbs});
  f(OptionField{"drop_wg", o.assembly.drop_wg, kSetup});
  f(OptionField{"drop_s", o.assembly.drop_s, kSetup});
  f(OptionField{"rhs_block_size", o.assembly.rhs_block_size, kSetup, kIndex});
  f(OptionField{"rhs_ordering", o.assembly.rhs_ordering, kSetup,
                RhsOrdering::Hypergraph});
  f(OptionField{"lu_pivot_tol", o.assembly.lu.pivot_tol, kSetup});
  f(OptionField{"lu_min_pivot", o.assembly.lu.min_pivot, kSetup});
  f(OptionField{"lu_kernel", o.assembly.lu.kernel, kSetup, LuKernel::Panel});
  f(OptionField{"lu_panel_width", o.assembly.lu.panel_max_width, kSetup,
                kIndex});
  f(OptionField{"lu_panel_relax", o.assembly.lu.panel_relax, kSetup});
  f(OptionField{"lu_threads", o.assembly.lu.threads, kOther});
  f(OptionField{"inner_threads", o.assembly.inner_threads, kOther});
  f(OptionField{"krylov", o.krylov, kOther, KrylovMethod::Bicgstab});
  f(OptionField{"gmres_restart", o.gmres.restart, kOther});
  f(OptionField{"gmres_max_iterations", o.gmres.max_iterations, kOther});
  f(OptionField{"gmres_rel_tolerance", o.gmres.rel_tolerance, kOther});
  f(OptionField{"bicgstab_max_iterations", o.bicgstab.max_iterations, kOther});
  f(OptionField{"bicgstab_rel_tolerance", o.bicgstab.rel_tolerance, kOther});
  f(OptionField{"threads", o.threads, kOther});
  f(OptionField{"seed", o.seed, kSetup});
}

class SchurSolver {
 public:
  /// The matrix is copied; it must be square with numeric values.
  SchurSolver(CsrMatrix a, SolverOptions opt);

  /// Phase 1 — compute the DBBD partition (Eq. (1)). RHB consumes the
  /// structural factor M; pass the generator's incidence or nullptr to build
  /// a clique cover internally. NGD ignores `incidence`. `coords` is the
  /// problem geometry (3 doubles per unknown, empty = none) used by the
  /// partition engine's geometric fallback; it is read during setup only.
  void setup(const CsrMatrix* incidence = nullptr,
             std::span<const double> coords = {});

  /// Phase 1, symbolic-reuse variant: adopt a partition computed for another
  /// matrix with the same pattern (the serve layer's factorization cache
  /// keys partitions by structural fingerprint). Skips the partitioner
  /// entirely; factor() must still run for the new numeric values.
  void adopt_partition(DbbdPartition dbbd);

  /// Phase 2 — subdomain factorizations, S̃ assembly, LU(S̃). Also
  /// preallocates the per-subdomain solve workspaces, so the solve phase
  /// runs allocation-free. After factor() returns, the setup is immutable:
  /// every solve entry point below is const and reentrant as long as each
  /// concurrent caller brings its own SolveContext.
  void factor();

  /// Everything one subdomain's solve-path sweep mutates (the per-worker
  /// scratch idiom of direct/multirhs.cpp): the packed interface gather,
  /// the Ê·v product, the D⁻¹ result, the triangular-solve permutation
  /// scratch, the F̂·z product, and D⁻¹f kept from the ĝ reduction for the
  /// back-substitution.
  struct SubdomainSolveScratch {
    std::vector<value_t> v;       // |e_cols| packed interface values
    std::vector<value_t> t;       // Ê·v (interior dim)
    std::vector<value_t> z;       // D⁻¹·t (interior dim)
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
  /// the Schur operator after the first call). Uses the solver's own
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
  /// Separator block C of Eq. (1) (separator-local numbering) — const view
  /// for the differential checkers (src/check/invariants.hpp).
  [[nodiscard]] const CsrMatrix& separator_block() const { return c_block_; }
  [[nodiscard]] const SolverOptions& options() const { return opt_; }
  [[nodiscard]] bool factored() const { return factor_done_; }

  /// Approximate resident bytes of the completed setup: matrix + partition
  /// + per-subdomain factors/interfaces + S̃ + LU(S̃). The serve-layer
  /// factorization cache charges entries by this number.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Apply D_ℓ⁻¹ (dense RHS) through the stored factors. Public for tests.
  void domain_solve(index_t l, std::span<const value_t> b,
                    std::span<value_t> z) const;

 private:
  class SchurOperator;

  /// domain_solve through caller-provided scratch (no allocation).
  void domain_solve_scratch(index_t l, std::span<const value_t> b,
                            std::span<value_t> z,
                            std::vector<value_t>& w) const;
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
