#include "hypergraph/fm.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace pdslin {

BalanceWindow balance_window(const Hypergraph& h, const HgBalance& bal) {
  PDSLIN_CHECK(bal.target0.size() == static_cast<std::size_t>(h.num_constraints));
  PDSLIN_CHECK(bal.epsilon.size() == static_cast<std::size_t>(h.num_constraints));
  BalanceWindow w;
  w.lo.resize(h.num_constraints);
  w.hi.resize(h.num_constraints);
  for (int c = 0; c < h.num_constraints; ++c) {
    const long long total = h.total_weight(c);
    long long wmax = 0;
    const std::size_t base = static_cast<std::size_t>(c) * h.num_vertices;
    for (index_t v = 0; v < h.num_vertices; ++v) {
      wmax = std::max(wmax, h.vwgt[base + v]);
    }
    const auto center =
        static_cast<long long>(bal.target0[c] * static_cast<double>(total));
    // Eq. (6): (Wmax − Wavg)/Wavg ≤ ε → per-side slack of ε·center; never
    // tighter than one vertex or feasibility dies.
    const long long slack = std::max<long long>(
        static_cast<long long>(bal.epsilon[c] * static_cast<double>(center)), wmax);
    w.lo[c] = std::max<long long>(0, center - slack);
    w.hi[c] = std::min(total, center + slack);
  }
  return w;
}

bool is_balanced(const HgBisection& b, const BalanceWindow& w) {
  for (std::size_t c = 0; c < w.lo.size(); ++c) {
    if (b.weight[0][c] < w.lo[c] || b.weight[0][c] > w.hi[c]) return false;
  }
  return true;
}

namespace {

long long violation(const HgBisection& b, const BalanceWindow& w) {
  long long v = 0;
  for (std::size_t c = 0; c < w.lo.size(); ++c) {
    if (b.weight[0][c] < w.lo[c]) v += w.lo[c] - b.weight[0][c];
    if (b.weight[0][c] > w.hi[c]) v += b.weight[0][c] - w.hi[c];
  }
  return v;
}

// A net's share of the gain of moving one of its pins, given the net's pin
// counts on the pin's side (`own`) and on the other side.
long long pin_gain(index_t own, index_t other, long long cost) {
  if (other == 0) return own > 1 ? -cost : 0;  // would become cut
  return own == 1 ? cost : 0;                  // would become uncut
}

long long gain_of(const Hypergraph& h, const HgBisection& b, index_t v) {
  const int s = b.side[v];
  const int t = 1 - s;
  long long g = 0;
  for (index_t n : h.nets_of(v)) {
    g += pin_gain(b.pin_count[s][n], b.pin_count[t][n], h.net_cost[n]);
  }
  return g;
}

// Feasibility of moving v given the window; when the current state is
// infeasible, any move that strictly reduces the violation is allowed.
bool move_allowed(const Hypergraph& h, const HgBisection& b,
                  const BalanceWindow& w, index_t v, long long cur_violation) {
  const int s = b.side[v];
  long long new_violation = 0;
  bool inside = true;
  for (int c = 0; c < h.num_constraints; ++c) {
    const long long wv = h.weight(c, v);
    const long long w0 = b.weight[0][c] + (s == 0 ? -wv : wv);
    if (w0 < w.lo[c]) {
      new_violation += w.lo[c] - w0;
      inside = false;
    } else if (w0 > w.hi[c]) {
      new_violation += w0 - w.hi[c];
      inside = false;
    }
  }
  if (inside) return true;
  return new_violation < cur_violation;
}

}  // namespace

namespace {

// Dedicated balancing phase: while a constraint is outside its window, move
// the cheapest (highest-gain) vertex off the overweight side. Runs before
// FM so refinement starts from a feasible point instead of fighting the
// balance with gain-ordered moves only.
void rebalance(const Hypergraph& h, HgBisection& b, const BalanceWindow& w) {
  long long cur = violation(b, w);
  index_t moves_left = 2 * h.num_vertices;  // hard bound
  while (cur > 0 && moves_left-- > 0) {
    index_t best = -1;
    long long best_gain = 0;
    long long best_violation = cur;
    for (index_t v = 0; v < h.num_vertices; ++v) {
      // Quick screen: the move must strictly reduce the violation.
      long long new_violation = 0;
      const int s = b.side[v];
      for (int c = 0; c < h.num_constraints; ++c) {
        const long long wv = h.weight(c, v);
        const long long w0 = b.weight[0][c] + (s == 0 ? -wv : wv);
        if (w0 < w.lo[c]) new_violation += w.lo[c] - w0;
        if (w0 > w.hi[c]) new_violation += w0 - w.hi[c];
      }
      if (new_violation >= cur) continue;
      const long long g = gain_of(h, b, v);
      if (best < 0 || new_violation < best_violation ||
          (new_violation == best_violation && g > best_gain)) {
        best = v;
        best_gain = g;
        best_violation = new_violation;
      }
    }
    if (best < 0) break;  // no single move helps (conflicting constraints)
    b.apply_move(h, best);
    cur = best_violation;
  }
}

}  // namespace

int fm_refine(const Hypergraph& h, HgBisection& b, const BalanceWindow& w,
              int max_passes) {
  if (h.num_vertices <= 1) return 0;
  if (!is_balanced(b, w)) rebalance(h, b, w);

  const index_t n = h.num_vertices;
  std::vector<long long> gain(n);
  // Max-heap of (gain, vertex) with lazy deletion: an entry is stale once
  // its vertex is locked or its gain has changed. Pairs order totally, so
  // the pop sequence depends only on the entries pushed, not on the order
  // they were pushed in or on how the heap was built.
  using HeapItem = std::pair<long long, index_t>;
  std::vector<HeapItem> heap;
  std::vector<char> locked(n);
  std::vector<index_t> moves;
  moves.reserve(n);
  // Unlocked pins whose gain the current move changed, each with its gain
  // before the move (`in_touched` marks them while the move is applied).
  std::vector<std::pair<index_t, long long>> touched;
  std::vector<char> in_touched(n, 0);
  int improving_passes = 0;

  for (int pass = 0; pass < max_passes; ++pass) {
    const bool pre_feasible = is_balanced(b, w);
    const long long pre_cut = b.cut_cost;
    const long long pre_viol = violation(b, w);
    heap.clear();
    for (index_t v = 0; v < n; ++v) {
      gain[v] = gain_of(h, b, v);
      heap.emplace_back(gain[v], v);
    }
    std::make_heap(heap.begin(), heap.end());
    std::fill(locked.begin(), locked.end(), 0);
    moves.clear();

    // Track the best prefix lexicographically: feasible first, then cut,
    // then violation (for the all-infeasible case).
    struct Snapshot {
      bool feasible;
      long long cut;
      long long viol;
      index_t prefix;
    };
    long long cur_violation = violation(b, w);
    Snapshot best{is_balanced(b, w), b.cut_cost, cur_violation, 0};

    long long negative_streak = 0;
    // Abandon a pass after this much accumulated harm with no new best —
    // bounds pass cost on adversarial inputs.
    const long long patience = 2000;

    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end());
      const auto [gval, v] = heap.back();
      heap.pop_back();
      if (locked[v] || gval != gain[v]) continue;
      if (!move_allowed(h, b, w, v, cur_violation)) continue;

      // Delta gains: a net's share of its pins' gains changes only when the
      // move takes its target-side pin count out of {0, 1} or its
      // source-side count into {0, 1}. The change is the same for every pin
      // on one side, so it is computed once per side from the counts before
      // the move and added to the unlocked pins.
      locked[v] = 1;
      moves.push_back(v);
      const int s = b.side[v];
      const int t = 1 - s;
      touched.clear();
      for (index_t net : h.nets_of(v)) {
        const index_t ps = b.pin_count[s][net];
        const index_t pt = b.pin_count[t][net];
        if (pt > 1 && ps > 2) continue;
        const long long c = h.net_cost[net];
        const long long ds = pin_gain(ps - 1, pt + 1, c) - pin_gain(ps, pt, c);
        const long long dt = pin_gain(pt + 1, ps - 1, c) - pin_gain(pt, ps, c);
        if (ds == 0 && dt == 0) continue;
        for (index_t u : h.pins(net)) {
          const long long d = b.side[u] == s ? ds : dt;
          if (d == 0 || locked[u]) continue;
          if (!in_touched[u]) {
            in_touched[u] = 1;
            touched.emplace_back(u, gain[u]);
          }
          gain[u] += d;
        }
      }
      b.apply_move(h, v);
      cur_violation = violation(b, w);
      // One entry per pin whose gain the move changed, at its final gain.
      for (const auto& [u, before] : touched) {
        in_touched[u] = 0;
        if (gain[u] != before) {
          heap.emplace_back(gain[u], u);
          std::push_heap(heap.begin(), heap.end());
        }
      }

      const bool feas = is_balanced(b, w);
      const Snapshot cur{feas, b.cut_cost, cur_violation,
                         static_cast<index_t>(moves.size())};
      const bool better =
          (cur.feasible && !best.feasible) ||
          (cur.feasible == best.feasible &&
           (cur.feasible ? cur.cut < best.cut : cur.viol < best.viol));
      if (better) {
        best = cur;
        negative_streak = 0;
      } else {
        negative_streak += std::max<long long>(1, -gval);
        if (negative_streak > patience) break;
      }
    }

    // Roll back to the best prefix.
    for (index_t i = static_cast<index_t>(moves.size()); i > best.prefix; --i) {
      b.apply_move(h, moves[i - 1]);
    }
    const bool post_feasible = is_balanced(b, w);
    const bool improved =
        (post_feasible && !pre_feasible) ||
        (post_feasible == pre_feasible &&
         (post_feasible ? b.cut_cost < pre_cut : violation(b, w) < pre_viol));
    if (improved) {
      ++improving_passes;
    } else {
      break;
    }
  }
  return improving_passes;
}

}  // namespace pdslin
