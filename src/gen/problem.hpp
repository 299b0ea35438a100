// Generated test problem: the assembled matrix plus the structural factor M
// with str(MᵀM) ⊇ str(A) that the hypergraph partitioning pipeline consumes
// (paper Eq. (11)).
#pragma once

#include <string>
#include <vector>

#include "sparse/csr.hpp"

namespace pdslin {

struct GeneratedProblem {
  std::string name;
  std::string source;  // "cavity", "fusion", "circuit" — Table I's "source"
  CsrMatrix a;
  /// Element/clique incidence matrix M (rows = elements/cliques, columns =
  /// unknowns). Empty (rows == 0) when the generator has no natural M; the
  /// pipeline then falls back to the greedy clique cover.
  CsrMatrix incidence;
  /// Node geometry: interleaved xyz, 3 doubles per unknown. FEM generators
  /// emit the mesh coordinates (2D meshes use z = 0); empty for problems
  /// with no natural embedding (e.g. circuits). Nothing in the library
  /// reads it; it stays only for callers that still pass it to
  /// SchurSolver::setup.
  std::vector<double> coords;
  bool pattern_symmetric = true;
  bool value_symmetric = true;
  bool positive_definite = false;
};

}  // namespace pdslin
