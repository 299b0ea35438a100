#include "hypergraph/bisect.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "hypergraph/coarsen.hpp"
#include "hypergraph/initial.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pdslin {

namespace {

HgBalance make_balance(const Hypergraph& h, const HgBisectOptions& opt) {
  HgBalance bal;
  bal.target0 = opt.target0;
  bal.epsilon = opt.epsilon;
  if (bal.target0.empty()) bal.target0.assign(h.num_constraints, 0.5);
  if (bal.epsilon.empty()) bal.epsilon.assign(h.num_constraints, 0.05);
  PDSLIN_CHECK(bal.target0.size() == static_cast<std::size_t>(h.num_constraints));
  PDSLIN_CHECK(bal.epsilon.size() == static_cast<std::size_t>(h.num_constraints));
  return bal;
}

// Lexicographic quality: feasible first, then cut.
bool better(const HgBisection& a, const HgBisection& b, const BalanceWindow& w) {
  const bool fa = is_balanced(a, w);
  const bool fb = is_balanced(b, w);
  if (fa != fb) return fa;
  return a.cut_cost < b.cut_cost;
}

HgBisection bisect_level(const Hypergraph& h, const HgBisectOptions& opt,
                         Rng& rng) {
  const HgBalance bal = make_balance(h, opt);
  const BalanceWindow window = balance_window(h, bal);
  const bool stopped = opt.should_stop && opt.should_stop();

  if (stopped || h.num_vertices <= opt.coarsen_to) {
    HgBisection best;
    bool have = false;
    // Budget exhausted → cheapest valid answer: one grown bisection, no FM.
    const int tries = stopped ? 1 : std::max(1, opt.initial_tries);
    const int passes = stopped ? 0 : opt.refine_passes;
    for (int t = 0; t < tries; ++t) {
      HgBisection b = (t % 2 == 0) ? grow_bisection(h, bal.target0[0], rng)
                                   : random_bisection(h, bal.target0[0], rng);
      fm_refine(h, b, window, passes, rng);
      if (!have || better(b, best, window)) {
        best = std::move(b);
        have = true;
      }
    }
    return best;
  }

  const std::vector<index_t> match =
      heavy_connectivity_matching_det(h, opt.matching_threads);
  HgCoarsening c = contract(h, match);
  if (c.coarse.num_vertices > h.num_vertices * 19 / 20) {
    // Matching stalled (e.g. star hypergraph); fall back to flat partitioning.
    HgBisectOptions leaf = opt;
    leaf.coarsen_to = h.num_vertices;
    return bisect_level(h, leaf, rng);
  }

  HgBisectOptions sub = opt;
  sub.seed = rng.next();
  const HgBisection coarse_b = bisect_level(c.coarse, sub, rng);

  HgBisection b;
  b.side.resize(h.num_vertices);
  for (index_t v = 0; v < h.num_vertices; ++v) {
    b.side[v] = coarse_b.side[c.map[v]];
  }
  b.rebuild(h);
  // Re-poll on the way back up: projection is cheap, refinement is not.
  if (!(opt.should_stop && opt.should_stop())) {
    fm_refine(h, b, window, opt.refine_passes, rng);
  }
  return b;
}

}  // namespace

HgBisection bisect_hypergraph(const Hypergraph& h, const HgBisectOptions& opt) {
  PDSLIN_CHECK_MSG(h.num_vertices > 0,
                   "hypergraph bisection: empty hypergraph");
  for (int c = 0; c < h.num_constraints; ++c) {
    PDSLIN_CHECK_MSG(h.total_weight(c) > 0,
                     "hypergraph bisection: all-zero vertex weights "
                     "(constraint " + std::to_string(c) + ")");
  }
  if (h.num_vertices == 1) {
    // Degenerate but well-defined: the single vertex sits on side 0.
    HgBisection b;
    b.side.assign(1, 0);
    b.rebuild(h);
    return b;
  }
  Rng rng(opt.seed);
  return bisect_level(h, opt, rng);
}

}  // namespace pdslin
