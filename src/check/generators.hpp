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

/// One fuzz case: problem descriptor + pipeline configuration.
struct CaseSpec {
  Family family = Family::RandomDiagDom;
  index_t n = 64;            // target unknown count (families may round)
  std::uint64_t seed = 1;
  double density = 0.08;     // family-specific fill knob

  PartitionMethod partitioning = PartitionMethod::NGD;
  index_t num_subdomains = 4;  // power of two
  unsigned threads = 1;        // subdomain concurrency
  index_t nrhs = 1;
  KrylovMethod krylov = KrylovMethod::Gmres;
  /// true → zero drop thresholds, so the Schur check is exact to roundoff;
  /// false → the default drop_wg/drop_s with a loosened Schur tolerance.
  bool exact_assembly = true;
  /// Route the solve through a SolveService (cold, then cached, bitwise
  /// compared) instead of calling the solver directly.
  bool serve = false;
  /// Value-aware partitioning lane (--partition-values): weight nets/graph
  /// edges by bucketed |a_ij| magnitudes. Off keeps the pattern-only
  /// default; value-weighted lanes are re-run at another thread count and
  /// diffed bitwise by the differential runner.
  partition::ValueMode partition_values = partition::ValueMode::Off;

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
