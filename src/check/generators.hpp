// Deterministic problem/config sampling for the differential fuzz harness.
//
// A CaseSpec is a tiny, fully reproducible descriptor: matrix family +
// size/density/seed + one point of the pipeline config matrix (partitioner,
// threads, nrhs, Krylov method, exact vs dropped assembly, direct vs served).
// Everything downstream — the fuzz driver, the minimizer, the corpus replay
// test — works on specs, never on raw matrices, so any failure is a few
// bytes of JSON (check/artifact.hpp) instead of a matrix dump.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/schur_solver.hpp"
#include "gen/problem.hpp"

namespace pdslin::check {

/// Matrix families: the src/gen analogues plus adversarial shapes that
/// stress paths the example-based tests never hit.
enum class Family {
  Grid,           // SPD 5-point grid Laplacian
  RandomDiagDom,  // pattern-symmetric random, dominant diagonal
  PatternSym,     // pattern-symmetric random, unsymmetric values
  SuiteTdr,       // src/gen cavity analogue (indefinite FEM), small scale
  SuiteAsic,      // src/gen circuit analogue (quasi-dense nets), small scale
  BlockDiag,      // disconnected diagonal blocks → empty separator
  DenseRow,       // one fully dense row + column (huge interface pressure)
  Duplicates,     // assembled from COO with duplicated entries (summed)
  NearSingular,   // two almost linearly dependent rows (cond ~1e10)
  SingularBlock,  // exactly repeated row — truly singular
  Arrow,          // arrow matrix: diagonal + dense border
  AnisoSpd,       // SPD anisotropic FEM Laplacian with 1e3 coefficient jumps
  ShiftedLaplacian,  // grid Laplacian − shift·I: symmetric indefinite
};

const char* to_string(Family f);
/// Parse the to_string() name; returns false on unknown names.
bool family_from_string(std::string_view name, Family& out);

/// LU factorization kernel axis. Scalar and Panel must agree bitwise (the
/// differential runner reruns every Panel case on Scalar and diffs it).
enum class LuKernelAxis {
  Scalar,  // reference Gilbert–Peierls column kernel
  Panel,   // supernodal blocked kernel (bitwise == Scalar by contract)
};

const char* to_string(LuKernelAxis k);
bool lu_kernel_from_string(std::string_view name, LuKernelAxis& out);

/// Partition-engine axis (src/partition/). Multilevel and ParallelMultilevel
/// must agree bitwise (the engine's thread-count determinism contract; the
/// differential runner's serial rerun enforces it end to end). Geometric
/// routes through the coordinate/streaming fallback, BudgetZero through the
/// exhausted-at-entry sentinel (partition_budget_ms = -1) — both change the
/// partition but must still produce a valid pipeline.
enum class PartitionEngineAxis {
  Multilevel,          // serial multilevel recursion (the default engine)
  ParallelMultilevel,  // same engine, parallel recursion (bitwise == serial)
  Geometric,           // forced geometric/streaming fallback
  BudgetZero,          // budget exhausted at entry → full degradation
};

const char* to_string(PartitionEngineAxis e);
bool partition_engine_from_string(std::string_view name,
                                  PartitionEngineAxis& out);

/// One fuzz case: problem descriptor + pipeline configuration.
struct CaseSpec {
  Family family = Family::RandomDiagDom;
  index_t n = 64;            // target unknown count (families may round)
  std::uint64_t seed = 1;
  double density = 0.08;     // family-specific fill knob

  PartitionMethod partitioning = PartitionMethod::NGD;
  index_t num_subdomains = 4;  // power of two
  unsigned threads = 1;        // outer subdomain concurrency
  unsigned inner_threads = 1;  // per-subdomain workers
  index_t nrhs = 1;
  KrylovMethod krylov = KrylovMethod::Gmres;
  /// true → zero drop thresholds, so the Schur check is exact to roundoff;
  /// false → the default drop_wg/drop_s with a loosened Schur tolerance.
  bool exact_assembly = true;
  /// Route the solve through a SolveService (cold, then cached, bitwise
  /// compared) instead of calling the solver directly.
  bool serve = false;
  /// Which subdomain LU kernel factorizes the interior blocks.
  LuKernelAxis lu_kernel = LuKernelAxis::Panel;
  /// Which partition engine lane computes the DBBD partition.
  PartitionEngineAxis partition_engine = PartitionEngineAxis::Multilevel;
  /// Value-aware partitioning lane (--partition-values): weight nets/graph
  /// edges by bucketed |a_ij| magnitudes. Off keeps the pattern-only
  /// default; value-weighted parallel lanes are re-run serial and diffed
  /// bitwise by the differential runner.
  partition::ValueMode partition_values = partition::ValueMode::Off;
  /// Adaptive-σ lane: the served path runs with the self-tuning drop
  /// controller enabled (serve/adapt.hpp). The warm answer must stay
  /// bitwise equal to a direct solve at the response's tuned_drop_s.
  bool adaptive_sigma = false;

  /// Short id, e.g. "random-diag-dom/n64/seed7/RHB/k4/t3/nrhs2/exact".
  [[nodiscard]] std::string to_string() const;
};

/// Build the matrix (and incidence, when the family provides one) for a
/// spec. Deterministic in the spec alone.
GeneratedProblem build_case(const CaseSpec& spec);

/// The i-th case of a campaign. Config axes cycle through the full matrix
/// (partitioner × threads × nrhs × direct/serve × Krylov × exact/dropped)
/// while the problem axes (family, n, density, seed) are drawn from
/// Rng(base_seed, i) — every combination is exercised many times over a
/// few hundred seeds.
CaseSpec sample_case(std::uint64_t base_seed, int i);

/// Translate the spec's config axes into SolverOptions.
SolverOptions solver_options_for(const CaseSpec& spec);

}  // namespace pdslin::check
