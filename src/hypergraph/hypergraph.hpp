// Hypergraph model (paper §II).
//
// A hypergraph H = (V, N) with pins stored both net-major (net → pins) and
// vertex-major (vertex → nets); a net lists each pin once (FM's delta gains
// rely on it). Vertices carry one weight per balancing constraint (the
// multi-constraint RHB of §III-C uses two); nets carry an integer cost (the
// soed implementation of §III-C manipulates these).
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace pdslin {

struct Hypergraph {
  index_t num_vertices = 0;
  index_t num_nets = 0;
  int num_constraints = 1;

  std::vector<index_t> net_ptr;   // size num_nets+1
  std::vector<index_t> net_pins;  // pins of each net (vertex ids)
  std::vector<index_t> vtx_ptr;   // size num_vertices+1
  std::vector<index_t> vtx_nets;  // nets of each vertex

  /// Constraint-major weights: weight of vertex v under constraint c is
  /// vwgt[c * num_vertices + v].
  std::vector<long long> vwgt;
  std::vector<index_t> net_cost;  // size num_nets

  [[nodiscard]] std::span<const index_t> pins(index_t net) const {
    return {net_pins.data() + net_ptr[net],
            static_cast<std::size_t>(net_ptr[net + 1] - net_ptr[net])};
  }
  [[nodiscard]] std::span<const index_t> nets_of(index_t v) const {
    return {vtx_nets.data() + vtx_ptr[v],
            static_cast<std::size_t>(vtx_ptr[v + 1] - vtx_ptr[v])};
  }
  [[nodiscard]] long long weight(int constraint, index_t v) const {
    return vwgt[static_cast<std::size_t>(constraint) * num_vertices + v];
  }
  [[nodiscard]] long long total_weight(int constraint) const;

  /// Rebuild vtx_ptr/vtx_nets from the net-major arrays.
  void build_vertex_lists();

  /// Structural invariants (consistent sizes, in-range pins, inverse lists
  /// in sync). Throws pdslin::Error on violation.
  void validate() const;
};

/// Column-net model H_C(M) of an m×n matrix (§II): vertices are the m rows,
/// nets are the n columns; row r is a pin of net c iff M(r, c) ≠ 0.
/// Unit vertex weights and unit net costs.
Hypergraph column_net_model(const CsrMatrix& m);

}  // namespace pdslin
