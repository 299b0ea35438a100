// Recursive Hypergraph Bisection (RHB) — the paper's first contribution
// (§III-C, Algorithm of Fig. 2).
//
// The column-net hypergraph of the structural factor M is bisected
// recursively. At every bisection below the first, vertex weights are
// recomputed from the CURRENT submatrix ("dynamic weights"):
//   w1(i) = nnz(M_ℓ(i,:)) — predicts subdomain-nonzero balance
//            (Σ w1² bounds nnz(D_ℓ) for the next level),
//   w2(i) = nnz(M(i,:))   — with w1, predicts interface-nonzero balance
//            (Σ (w2² − w1²) bounds interface+separator nonzeros).
// Cut columns are inherited by net splitting (con1), net discarding (cnet),
// or cost-halved splitting (soed, costs initialized to 2).
//
// The row partition of M induces the unknown partition of A = MᵀM: a column
// of M touching rows of a single part is interior to that subdomain; a cut
// column becomes a separator unknown (paper Eq. (10) → Eq. (12)).
//
// The recursion runs in the partition engine (partition::rhb_engine); this
// header holds its options. Any k ≥ 1 splits as ⌊k/2⌋ + ⌈k/2⌉ with side 0
// aimed at the ⌊k/2⌋/k weight share.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "sparse/csr.hpp"

namespace pdslin {

struct RhbOptions {
  index_t num_parts = 8;
  CutMetric metric = CutMetric::Soed;
  RhbConstraintMode constraints = RhbConstraintMode::SingleW1;
  /// Ablation switch: false freezes the first-level (unit) weights, turning
  /// RHB into a standard static recursive bisection.
  bool dynamic_weights = true;
  double epsilon = 0.10;
  std::uint64_t seed = 1;
  index_t coarsen_to = 150;
  int refine_passes = 6;
  int initial_tries = 4;
  /// Multi-start: run the whole recursion this many times and keep the
  /// result with the best induced subdomain balance (ties: smaller
  /// separator). Recursive bisection is cheap next to the numerical phases.
  int attempts = 3;
};

}  // namespace pdslin
