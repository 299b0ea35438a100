// Shared configuration enums for the PDSLin-style solver pipeline.
#pragma once

#include "hypergraph/metrics.hpp"
#include "iterative/operators.hpp"  // KrylovMethod

namespace pdslin {

/// How the initial doubly-bordered partition (paper Eq. (1)) is computed.
enum class PartitionMethod {
  NGD,  // nested graph dissection baseline (PT-Scotch role)
  RHB,  // recursive hypergraph bisection with dynamic weights (paper §III-C)
};

/// RHB balancing constraints (paper §III-C): w1 alone, or {w1, w2}.
enum class RhbConstraintMode {
  SingleW1,   // balance predicted subdomain nonzeros
  MultiW1W2,  // additionally balance predicted interface nonzeros
};

/// Column ordering for the multi-RHS triangular solves (paper §IV).
enum class RhsOrdering {
  Natural,     // global dissection order, as extracted
  Postorder,   // e-tree postorder + first-nonzero sort (§IV-A)
  Hypergraph,  // row-net hypergraph partitioning of G (§IV-B)
};

const char* to_string(PartitionMethod m);
const char* to_string(RhbConstraintMode m);
const char* to_string(RhsOrdering o);
const char* to_string(KrylovMethod k);

}  // namespace pdslin
