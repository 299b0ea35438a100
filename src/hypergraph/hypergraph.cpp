#include "hypergraph/hypergraph.hpp"

#include "sparse/convert.hpp"
#include "util/error.hpp"

namespace pdslin {

long long Hypergraph::total_weight(int constraint) const {
  long long sum = 0;
  const std::size_t base = static_cast<std::size_t>(constraint) * num_vertices;
  for (index_t v = 0; v < num_vertices; ++v) sum += vwgt[base + v];
  return sum;
}

void Hypergraph::build_vertex_lists() {
  vtx_ptr.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (index_t v : net_pins) ++vtx_ptr[v + 1];
  for (index_t v = 0; v < num_vertices; ++v) vtx_ptr[v + 1] += vtx_ptr[v];
  vtx_nets.resize(net_pins.size());
  std::vector<index_t> next(vtx_ptr.begin(), vtx_ptr.end() - 1);
  for (index_t n = 0; n < num_nets; ++n) {
    for (index_t p = net_ptr[n]; p < net_ptr[n + 1]; ++p) {
      vtx_nets[next[net_pins[p]]++] = n;
    }
  }
}

void Hypergraph::validate() const {
  PDSLIN_CHECK(num_vertices >= 0 && num_nets >= 0 && num_constraints >= 1);
  PDSLIN_CHECK(net_ptr.size() == static_cast<std::size_t>(num_nets) + 1);
  PDSLIN_CHECK(net_ptr.front() == 0);
  PDSLIN_CHECK(static_cast<std::size_t>(net_ptr[num_nets]) == net_pins.size());
  for (index_t n = 0; n < num_nets; ++n) PDSLIN_CHECK(net_ptr[n] <= net_ptr[n + 1]);
  for (index_t v : net_pins) PDSLIN_CHECK(v >= 0 && v < num_vertices);
  PDSLIN_CHECK(vwgt.size() ==
               static_cast<std::size_t>(num_constraints) * num_vertices);
  PDSLIN_CHECK(net_cost.size() == static_cast<std::size_t>(num_nets));
  PDSLIN_CHECK(vtx_ptr.size() == static_cast<std::size_t>(num_vertices) + 1);
  PDSLIN_CHECK(vtx_nets.size() == net_pins.size());
  // Inverse consistency: every (net, pin) must appear as (pin, net).
  for (index_t n = 0; n < num_nets; ++n) {
    for (index_t p = net_ptr[n]; p < net_ptr[n + 1]; ++p) {
      const index_t v = net_pins[p];
      bool found = false;
      for (index_t q = vtx_ptr[v]; q < vtx_ptr[v + 1] && !found; ++q) {
        found = (vtx_nets[q] == n);
      }
      PDSLIN_CHECK_MSG(found, "vertex/net lists out of sync");
    }
  }
}

Hypergraph column_net_model(const CsrMatrix& m) {
  // Nets are columns → the net-major pin lists are exactly the CSC layout.
  const CscMatrix mc = csr_to_csc(m);
  Hypergraph h;
  h.num_vertices = m.rows;
  h.num_nets = m.cols;
  h.net_ptr = mc.col_ptr;
  h.net_pins = mc.row_idx;
  h.vwgt.assign(h.num_vertices, 1);
  h.net_cost.assign(h.num_nets, 1);
  h.build_vertex_lists();
  return h;
}

}  // namespace pdslin
