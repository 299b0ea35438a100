// Undirected graph model used by the nested-dissection baseline (the paper's
// NGD / PT-Scotch stand-in).
#pragma once

#include <vector>

#include "partition/types.hpp"
#include "sparse/csr.hpp"

namespace pdslin {

/// Undirected graph in CSR adjacency form with integer vertex and edge
/// weights. Self-loops are never stored; every edge appears in both
/// endpoints' adjacency lists with the same weight.
struct Graph {
  index_t n = 0;
  std::vector<index_t> adj_ptr;  // size n+1
  std::vector<index_t> adj;      // size 2|E|
  std::vector<index_t> vwgt;     // size n
  std::vector<index_t> ewgt;     // size 2|E|

  [[nodiscard]] index_t degree(index_t v) const { return adj_ptr[v + 1] - adj_ptr[v]; }
  [[nodiscard]] long long total_vertex_weight() const;

  /// Structural invariants: symmetric adjacency, no self loops, consistent
  /// weights. Throws pdslin::Error on violation.
  void validate() const;
};

/// Build the adjacency graph of a structurally symmetric square matrix
/// (diagonal ignored). Vertex weights are 1; edge weights are 1.
/// Pass the output of symmetrize_abs() for unsymmetric matrices.
Graph graph_from_matrix(const CsrMatrix& a);

/// Value-aware NGD (--partition-values): re-weight g's edges from the
/// off-diagonal magnitudes of `sym` — the same structurally/numerically
/// symmetric matrix (|A| + |Aᵀ|) the graph was built from. Each edge gets
/// the integer bucket of its |value| relative to the largest off-diagonal
/// magnitude (partition::value_weight), so FM gains and edge cuts prefer
/// keeping strong couplings interior. No-op for ValueMode::Off.
void apply_value_weights(Graph& g, const CsrMatrix& sym,
                         partition::ValueMode mode);

/// Sum of edge weights crossing the two sides (side[v] in {0,1}).
long long edge_cut(const Graph& g, const std::vector<signed char>& side);

/// Breadth-first levels from a seed; returns the level of each vertex
/// (-1 if unreachable) and the farthest vertex found.
struct BfsResult {
  std::vector<index_t> level;
  index_t farthest = -1;
  index_t num_levels = 0;
};
BfsResult bfs_levels(const Graph& g, index_t seed);

/// Pseudo-peripheral vertex: repeated BFS until the eccentricity stops
/// growing. Good seed for region-growing bisection.
index_t pseudo_peripheral_vertex(const Graph& g, index_t seed);

}  // namespace pdslin
