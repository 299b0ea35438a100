// Tests for the hypergraph model, incremental bisection state, FM,
// coarsening, multilevel bisection, recursive k-way partitioning (through
// the partition engine with static weights) and the three cut metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>
#include <unordered_map>

#include "hypergraph/bisect.hpp"
#include "hypergraph/coarsen.hpp"
#include "hypergraph/fm.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/initial.hpp"
#include "hypergraph/metrics.hpp"
#include "sparse/convert.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace pdslin {
namespace {

TEST(HypergraphModel, ColumnNetFromMatrix) {
  // 3×4 matrix: rows are vertices, columns are nets.
  const CsrMatrix m = testing::from_dense({{1, 0, 1, 0},
                                           {1, 1, 0, 0},
                                           {0, 1, 1, 1}});
  const Hypergraph h = column_net_model(m);
  h.validate();
  EXPECT_EQ(h.num_vertices, 3);
  EXPECT_EQ(h.num_nets, 4);
  EXPECT_EQ(h.pins(0).size(), 2u);  // column 0 has rows 0, 1
  EXPECT_EQ(h.pins(3).size(), 1u);
  EXPECT_EQ(h.nets_of(2).size(), 3u);
  EXPECT_EQ(h.total_weight(0), 3);
}

TEST(BisectionState, ApplyMoveMatchesRebuild) {
  Rng rng(7);
  const CsrMatrix m = testing::random_sparse(30, 20, 0.2, rng);
  const Hypergraph h = column_net_model(m);
  HgBisection b;
  b.side.resize(h.num_vertices);
  for (auto& s : b.side) s = static_cast<signed char>(rng.index(2));
  b.rebuild(h);
  EXPECT_EQ(b.cut_cost, cut_cost_of(h, b.side));

  // Property: after any sequence of moves the incremental cut equals the
  // from-scratch cut.
  for (int mv = 0; mv < 200; ++mv) {
    const index_t v = rng.index(h.num_vertices);
    b.apply_move(h, v);
    ASSERT_EQ(b.cut_cost, cut_cost_of(h, b.side)) << "after move " << mv;
  }
  // Weights stay consistent too.
  HgBisection fresh;
  fresh.side = b.side;
  fresh.rebuild(h);
  EXPECT_EQ(fresh.weight[0], b.weight[0]);
  EXPECT_EQ(fresh.weight[1], b.weight[1]);
}

TEST(Coarsen, MatchingAndContraction) {
  Rng rng(11);
  const CsrMatrix m = testing::random_sparse(40, 30, 0.15, rng);
  const Hypergraph h = column_net_model(m);
  const auto match = heavy_connectivity_matching_det(h, 1);
  for (index_t v = 0; v < h.num_vertices; ++v) {
    EXPECT_EQ(match[match[v]], v);
  }
  const HgCoarsening c = contract(h, match);
  c.coarse.validate();
  EXPECT_LE(c.coarse.num_vertices, h.num_vertices);
  EXPECT_EQ(c.coarse.total_weight(0), h.total_weight(0));
  // No single-pin nets survive contraction.
  for (index_t n = 0; n < c.coarse.num_nets; ++n) {
    EXPECT_GE(c.coarse.pins(n).size(), 2u);
  }
}

TEST(Fm, ReducesCutAndRespectsBalance) {
  const CsrMatrix lap = testing::grid_laplacian(10, 10);
  const Hypergraph h = column_net_model(lap);
  Rng rng(13);
  HgBisection b = random_bisection(h, 0.5, rng);
  HgBalance bal;
  bal.target0 = {0.5};
  bal.epsilon = {0.05};
  const BalanceWindow w = balance_window(h, bal);
  const long long before = b.cut_cost;
  fm_refine(h, b, w, 8);
  EXPECT_LT(b.cut_cost, before);
  EXPECT_TRUE(is_balanced(b, w));
  EXPECT_EQ(b.cut_cost, cut_cost_of(h, b.side));
}

TEST(Bisect, GridColumnNetQuality) {
  const CsrMatrix lap = testing::grid_laplacian(16, 16);
  const Hypergraph h = column_net_model(lap);
  HgBisectOptions opt;
  opt.seed = 17;
  const HgBisection b = bisect_hypergraph(h, opt);
  // Cutting a 16×16 grid column-net model: a straight cut crosses ~3 nets
  // per boundary vertex; accept a small multilevel factor.
  EXPECT_LE(b.cut_cost, 120);
  EXPECT_GT(b.cut_cost, 0);
  const long long total = h.total_weight(0);
  EXPECT_LE(std::max(b.weight[0][0], b.weight[1][0]),
            static_cast<long long>(0.56 * static_cast<double>(total)));
}

TEST(Bisect, EmptyHypergraphThrows) {
  Hypergraph h;  // zero vertices
  EXPECT_THROW(bisect_hypergraph(h, HgBisectOptions{}), Error);
}

TEST(Bisect, AllZeroWeightsThrow) {
  const CsrMatrix m = testing::from_dense({{1, 1, 0}, {0, 1, 1}});
  Hypergraph h = column_net_model(m);
  h.vwgt.assign(h.vwgt.size(), 0);
  EXPECT_THROW(bisect_hypergraph(h, HgBisectOptions{}), Error);
}

TEST(Bisect, SingleVertexIsTrivialNotAnError) {
  const CsrMatrix m = testing::from_dense({{1, 1, 1}});
  const Hypergraph h = column_net_model(m);
  const HgBisection b = bisect_hypergraph(h, HgBisectOptions{});
  ASSERT_EQ(b.side.size(), 1u);
  EXPECT_EQ(b.side[0], 0);
  EXPECT_EQ(b.cut_cost, 0);
}

TEST(Coarsen, DeterministicMatchingMatchesAcrossThreadCounts) {
  const CsrMatrix lap = testing::grid_laplacian(12, 12);
  const Hypergraph h = column_net_model(lap);
  const std::vector<index_t> m1 = heavy_connectivity_matching_det(h, 1);
  const std::vector<index_t> m4 = heavy_connectivity_matching_det(h, 4);
  EXPECT_EQ(m1, m4);
  // The matching must actually coarsen a grid model, not stall.
  index_t matched = 0;
  for (index_t v = 0; v < h.num_vertices; ++v) {
    if (m1[v] != v) ++matched;
  }
  EXPECT_GT(matched, h.num_vertices / 2);
}

// ---------------------------------------------------------------------------
// Kernel oracles: straightforward reference copies of the three hot kernels
// (a matcher that rescores every unmatched vertex each round, contraction
// with hash buckets, FM that recomputes every affected gain from scratch).
// The library's kernels must match them exactly on random hypergraphs with
// huge nets, duplicate and single-pin nets, two constraints and costs at the
// index_t ceiling.
// ---------------------------------------------------------------------------

namespace oracle {

long long sat_add_score(long long a, long long b) {
  if (a > std::numeric_limits<long long>::max() - b) {
    return std::numeric_limits<long long>::max();
  }
  return a + b;
}

index_t sat_add_cost(index_t a, index_t b) {
  if (a > std::numeric_limits<index_t>::max() - b) {
    return std::numeric_limits<index_t>::max();
  }
  return a + b;
}

std::uint64_t vertex_key(index_t v) {
  auto x = static_cast<std::uint64_t>(v) + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<index_t> matching(const Hypergraph& h) {
  const index_t n = h.num_vertices;
  std::vector<index_t> match(n, -1);
  std::vector<index_t> proposal(n, -1);
  std::vector<long long> score(n, 0);
  std::vector<index_t> touched;
  for (int round = 0; round < 8; ++round) {
    for (index_t v = 0; v < n; ++v) {
      proposal[v] = -1;
      if (match[v] >= 0) continue;
      touched.clear();
      for (index_t net : h.nets_of(v)) {
        const auto pin_span = h.pins(net);
        if (pin_span.size() > 512) continue;
        for (index_t u : pin_span) {
          if (u == v || match[u] >= 0) continue;
          if (score[u] == 0) touched.push_back(u);
          score[u] = sat_add_score(score[u], h.net_cost[net]);
        }
      }
      index_t best = -1;
      long long best_score = 0;
      std::uint64_t best_key = 0;
      for (index_t u : touched) {
        const std::uint64_t key = vertex_key(u);
        if (score[u] > best_score ||
            (score[u] == best_score && best >= 0 &&
             (key < best_key || (key == best_key && u < best)))) {
          best_score = score[u];
          best = u;
          best_key = key;
        }
        score[u] = 0;
      }
      proposal[v] = best;
    }
    bool any = false;
    for (index_t v = 0; v < n; ++v) {
      if (match[v] >= 0) continue;
      const index_t u = proposal[v];
      if (u > v && proposal[u] == v) {
        match[v] = u;
        match[u] = v;
        any = true;
      }
    }
    if (!any) break;
  }
  for (index_t v = 0; v < n; ++v) {
    if (match[v] < 0) match[v] = v;
  }
  return match;
}

HgCoarsening contract(const Hypergraph& h, const std::vector<index_t>& match) {
  HgCoarsening c;
  c.map.assign(h.num_vertices, -1);
  index_t nc = 0;
  for (index_t v = 0; v < h.num_vertices; ++v) {
    if (c.map[v] >= 0) continue;
    c.map[v] = nc;
    if (match[v] != v) c.map[match[v]] = nc;
    ++nc;
  }
  Hypergraph& hc = c.coarse;
  hc.num_vertices = nc;
  hc.num_constraints = h.num_constraints;
  hc.vwgt.assign(static_cast<std::size_t>(h.num_constraints) * nc, 0);
  for (int cc = 0; cc < h.num_constraints; ++cc) {
    for (index_t v = 0; v < h.num_vertices; ++v) {
      hc.vwgt[static_cast<std::size_t>(cc) * nc + c.map[v]] += h.weight(cc, v);
    }
  }
  std::vector<index_t> buf;
  std::unordered_map<std::size_t, std::vector<index_t>> buckets;
  hc.net_ptr.push_back(0);
  for (index_t n = 0; n < h.num_nets; ++n) {
    buf.clear();
    for (index_t v : h.pins(n)) buf.push_back(c.map[v]);
    std::sort(buf.begin(), buf.end());
    buf.erase(std::unique(buf.begin(), buf.end()), buf.end());
    if (buf.size() <= 1) continue;
    std::size_t hash = buf.size();
    for (index_t v : buf) {
      hash ^= static_cast<std::size_t>(v) + 0x9E3779B97F4A7C15ULL +
              (hash << 6) + (hash >> 2);
    }
    bool merged = false;
    auto it = buckets.find(hash);
    if (it != buckets.end()) {
      for (index_t existing : it->second) {
        const auto pins = std::span<const index_t>(
            hc.net_pins.data() + hc.net_ptr[existing],
            static_cast<std::size_t>(hc.net_ptr[existing + 1] -
                                     hc.net_ptr[existing]));
        if (pins.size() == buf.size() &&
            std::equal(pins.begin(), pins.end(), buf.begin())) {
          hc.net_cost[existing] = sat_add_cost(hc.net_cost[existing], h.net_cost[n]);
          merged = true;
          break;
        }
      }
    }
    if (!merged) {
      const auto id = static_cast<index_t>(hc.net_cost.size());
      hc.net_pins.insert(hc.net_pins.end(), buf.begin(), buf.end());
      hc.net_ptr.push_back(static_cast<index_t>(hc.net_pins.size()));
      hc.net_cost.push_back(h.net_cost[n]);
      buckets[hash].push_back(id);
    }
  }
  hc.num_nets = static_cast<index_t>(hc.net_cost.size());
  hc.build_vertex_lists();
  return c;
}

long long violation(const HgBisection& b, const BalanceWindow& w) {
  long long v = 0;
  for (std::size_t c = 0; c < w.lo.size(); ++c) {
    if (b.weight[0][c] < w.lo[c]) v += w.lo[c] - b.weight[0][c];
    if (b.weight[0][c] > w.hi[c]) v += b.weight[0][c] - w.hi[c];
  }
  return v;
}

long long gain_of(const Hypergraph& h, const HgBisection& b, index_t v) {
  const int s = b.side[v];
  const int t = 1 - s;
  long long g = 0;
  for (index_t n : h.nets_of(v)) {
    if (b.pin_count[t][n] == 0) {
      if (b.pin_count[s][n] > 1) g -= h.net_cost[n];
    } else if (b.pin_count[s][n] == 1) {
      g += h.net_cost[n];
    }
  }
  return g;
}

long long violation_after(const Hypergraph& h, const HgBisection& b,
                          const BalanceWindow& w, index_t v) {
  long long out = 0;
  for (int c = 0; c < h.num_constraints; ++c) {
    const long long wv = h.weight(c, v);
    const long long w0 = b.weight[0][c] + (b.side[v] == 0 ? -wv : wv);
    if (w0 < w.lo[c]) out += w.lo[c] - w0;
    if (w0 > w.hi[c]) out += w0 - w.hi[c];
  }
  return out;
}

void rebalance(const Hypergraph& h, HgBisection& b, const BalanceWindow& w) {
  long long cur = violation(b, w);
  index_t moves_left = 2 * h.num_vertices;
  while (cur > 0 && moves_left-- > 0) {
    index_t best = -1;
    long long best_gain = 0;
    long long best_violation = cur;
    for (index_t v = 0; v < h.num_vertices; ++v) {
      const long long nv = violation_after(h, b, w, v);
      if (nv >= cur) continue;
      const long long g = gain_of(h, b, v);
      if (best < 0 || nv < best_violation ||
          (nv == best_violation && g > best_gain)) {
        best = v;
        best_gain = g;
        best_violation = nv;
      }
    }
    if (best < 0) break;
    b.apply_move(h, best);
    cur = best_violation;
  }
}

int fm_refine(const Hypergraph& h, HgBisection& b, const BalanceWindow& w,
              int max_passes) {
  if (h.num_vertices <= 1) return 0;
  if (!is_balanced(b, w)) rebalance(h, b, w);
  std::vector<long long> gain(h.num_vertices);
  int improving_passes = 0;
  for (int pass = 0; pass < max_passes; ++pass) {
    const bool pre_feasible = is_balanced(b, w);
    const long long pre_cut = b.cut_cost;
    const long long pre_viol = violation(b, w);
    for (index_t v = 0; v < h.num_vertices; ++v) gain[v] = gain_of(h, b, v);
    std::priority_queue<std::pair<long long, index_t>> heap;
    for (index_t v = 0; v < h.num_vertices; ++v) heap.emplace(gain[v], v);
    std::vector<bool> locked(h.num_vertices, false);
    long long cur_violation = violation(b, w);
    bool best_feasible = is_balanced(b, w);
    long long best_cut = b.cut_cost;
    long long best_viol = cur_violation;
    std::size_t best_prefix = 0;
    std::vector<index_t> moves;
    std::vector<index_t> crossing;
    long long negative_streak = 0;
    while (!heap.empty()) {
      const auto [gval, v] = heap.top();
      heap.pop();
      if (locked[v] || gval != gain[v]) continue;
      const long long nv = violation_after(h, b, w, v);
      // Allowed if the move stays inside every window or reduces violation.
      bool inside = nv == 0;
      if (!inside && nv >= cur_violation) continue;
      crossing.clear();
      const int s = b.side[v];
      for (index_t n : h.nets_of(v)) {
        if (b.pin_count[1 - s][n] <= 1 || b.pin_count[s][n] <= 2) {
          crossing.push_back(n);
        }
      }
      locked[v] = true;
      moves.push_back(v);
      b.apply_move(h, v);
      cur_violation = violation(b, w);
      for (index_t n : crossing) {
        for (index_t u : h.pins(n)) {
          if (locked[u]) continue;
          const long long g = gain_of(h, b, u);
          if (g != gain[u]) {
            gain[u] = g;
            heap.emplace(g, u);
          }
        }
      }
      const bool feas = is_balanced(b, w);
      const bool better =
          (feas && !best_feasible) ||
          (feas == best_feasible &&
           (feas ? b.cut_cost < best_cut : cur_violation < best_viol));
      if (better) {
        best_feasible = feas;
        best_cut = b.cut_cost;
        best_viol = cur_violation;
        best_prefix = moves.size();
        negative_streak = 0;
      } else {
        negative_streak += std::max<long long>(1, -gval);
        if (negative_streak > 2000) break;
      }
    }
    for (std::size_t i = moves.size(); i > best_prefix; --i) {
      b.apply_move(h, moves[i - 1]);
    }
    const bool post_feasible = is_balanced(b, w);
    if ((post_feasible && !pre_feasible) ||
        (post_feasible == pre_feasible &&
         (post_feasible ? b.cut_cost < pre_cut : violation(b, w) < pre_viol))) {
      ++improving_passes;
    } else {
      break;
    }
  }
  return improving_passes;
}

}  // namespace oracle

// Random hypergraph with structure the kernels care about: local nets (so
// matching has real choices and ties), nets above the matcher's 512-pin
// cutoff, single-pin nets, exact and reordered duplicate nets, a few
// zero-cost nets, and two weight constraints. `cost_floor` near the index_t
// ceiling makes merged costs and connectivity scores saturate.
Hypergraph random_hypergraph(Rng& rng, index_t n, index_t num_nets,
                             index_t cost_floor) {
  Hypergraph h;
  h.num_vertices = n;
  h.num_constraints = 2;
  h.net_ptr.push_back(0);
  std::vector<index_t> pins;
  std::vector<char> seen(n, 0);
  for (index_t net = 0; net < num_nets; ++net) {
    pins.clear();
    const double kind = rng.uniform();
    if (net > 0 && kind < 0.12) {
      // Duplicate of an earlier net, its pins shuffled.
      const index_t src = rng.index(net);
      pins.assign(h.net_pins.begin() + h.net_ptr[src],
                  h.net_pins.begin() + h.net_ptr[src + 1]);
      std::shuffle(pins.begin(), pins.end(), rng);
    } else if (kind < 0.18) {
      pins.push_back(rng.index(n));  // single-pin net
    } else {
      const bool huge = kind > 0.995;
      const index_t size = huge ? 513 + rng.index(n - 513) : 2 + rng.index(6);
      const index_t center = rng.index(n);
      const index_t window = huge ? n : 24;
      while (static_cast<index_t>(pins.size()) < size) {
        const index_t v = (center + rng.index(window)) % n;
        if (!seen[v]) {
          seen[v] = 1;
          pins.push_back(v);
        }
      }
      for (index_t v : pins) seen[v] = 0;
    }
    h.net_pins.insert(h.net_pins.end(), pins.begin(), pins.end());
    h.net_ptr.push_back(static_cast<index_t>(h.net_pins.size()));
    const index_t spread = std::numeric_limits<index_t>::max() - cost_floor;
    h.net_cost.push_back(rng.uniform() < 0.03
                             ? 0
                             : cost_floor + rng.index(std::min<index_t>(spread, 4) + 1));
  }
  h.num_nets = num_nets;
  h.vwgt.resize(static_cast<std::size_t>(2) * n);
  for (index_t v = 0; v < n; ++v) {
    h.vwgt[v] = 1 + rng.index(3);
    h.vwgt[static_cast<std::size_t>(n) + v] = 1 + rng.index(20);
  }
  h.build_vertex_lists();
  h.validate();
  return h;
}

void expect_same_hypergraph(const Hypergraph& a, const Hypergraph& b) {
  EXPECT_EQ(a.num_vertices, b.num_vertices);
  EXPECT_EQ(a.num_nets, b.num_nets);
  EXPECT_EQ(a.num_constraints, b.num_constraints);
  EXPECT_EQ(a.net_ptr, b.net_ptr);
  EXPECT_EQ(a.net_pins, b.net_pins);
  EXPECT_EQ(a.net_cost, b.net_cost);
  EXPECT_EQ(a.vwgt, b.vwgt);
  EXPECT_EQ(a.vtx_ptr, b.vtx_ptr);
  EXPECT_EQ(a.vtx_nets, b.vtx_nets);
}

constexpr index_t kCeiling = std::numeric_limits<index_t>::max();

TEST(Coarsen, MatchingMatchesRescoringOracle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const index_t floor = seed % 3 == 0 ? kCeiling - 2 : 1;
    Hypergraph h = random_hypergraph(rng, 700, 1100, floor);
    // Walk down a few levels so coarse hypergraphs (merged nets, summed
    // costs) are matched too.
    for (int level = 0; level < 4 && h.num_vertices > 1; ++level) {
      const std::vector<index_t> expected = oracle::matching(h);
      ASSERT_EQ(heavy_connectivity_matching_det(h, 1), expected)
          << "seed " << seed << " level " << level;
      ASSERT_EQ(heavy_connectivity_matching_det(h, 4), expected)
          << "seed " << seed << " level " << level;
      h = oracle::contract(h, expected).coarse;
    }
  }
}

TEST(Coarsen, ContractMatchesBucketOracle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(100 + seed);
    const index_t floor = seed % 2 == 0 ? kCeiling - 3 : 1;
    Hypergraph h = random_hypergraph(rng, 600, 1400, floor);
    for (int level = 0; level < 4 && h.num_vertices > 1; ++level) {
      const std::vector<index_t> match = oracle::matching(h);
      const HgCoarsening expected = oracle::contract(h, match);
      const HgCoarsening got = contract(h, match);
      EXPECT_EQ(got.map, expected.map) << "seed " << seed << " level " << level;
      expect_same_hypergraph(got.coarse, expected.coarse);
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << " level " << level;
      }
      h = expected.coarse;
    }
  }
  // The saturating seeds really saturate: some merged cost hit the ceiling.
  Rng rng(102);
  const Hypergraph h = random_hypergraph(rng, 600, 1400, kCeiling - 3);
  const HgCoarsening c = contract(h, oracle::matching(h));
  EXPECT_NE(std::find(c.coarse.net_cost.begin(), c.coarse.net_cost.end(), kCeiling),
            c.coarse.net_cost.end());
}

TEST(Fm, RefineMatchesRecomputingOracle) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(200 + seed);
    const index_t floor = seed % 4 == 0 ? kCeiling - 1 : 1;
    const Hypergraph h = random_hypergraph(rng, 650, 1000, floor);
    HgBalance bal;
    bal.target0 = {0.5, 0.5};
    bal.epsilon = {0.03, 0.08};
    const BalanceWindow w = balance_window(h, bal);
    HgBisection start;
    start.side.resize(h.num_vertices);
    // Half the seeds start balanced-ish, half lopsided (the rebalance path).
    const double p1 = seed % 2 == 0 ? 0.5 : 0.8;
    for (auto& s : start.side) s = rng.uniform() < p1 ? 1 : 0;
    start.rebuild(h);
    for (int passes : {1, 3, 8}) {
      HgBisection expected = start;
      HgBisection got = start;
      const int expected_passes = oracle::fm_refine(h, expected, w, passes);
      EXPECT_EQ(fm_refine(h, got, w, passes), expected_passes)
          << "seed " << seed << " passes " << passes;
      ASSERT_EQ(got.side, expected.side) << "seed " << seed << " passes " << passes;
      EXPECT_EQ(got.cut_cost, expected.cut_cost);
      EXPECT_EQ(got.cut_cost, cut_cost_of(h, got.side));
      EXPECT_EQ(got.pin_count[0], expected.pin_count[0]);
      EXPECT_EQ(got.weight[0], expected.weight[0]);
    }
  }
}

TEST(Metrics, DefinitionsAndOrdering) {
  const CsrMatrix m = testing::from_dense({{1, 1, 0},
                                           {1, 0, 1},
                                           {0, 1, 1},
                                           {0, 0, 1}});
  const Hypergraph h = column_net_model(m);
  // parts: rows 0,1 → part 0; rows 2,3 → part 1.
  const std::vector<index_t> part{0, 0, 1, 1};
  const auto lambda = net_connectivity(h, part, 2);
  EXPECT_EQ(lambda[0], 1);  // net 0 pins {0,1} → one part
  EXPECT_EQ(lambda[1], 2);  // net 1 pins {0,2}
  EXPECT_EQ(lambda[2], 2);  // net 2 pins {1,2,3}
  const CutSizes s = evaluate_cutsizes(h, part, 2);
  EXPECT_EQ(s.con1, 2);
  EXPECT_EQ(s.cnet, 2);
  EXPECT_EQ(s.soed, 4);
  EXPECT_EQ(cutsize(h, part, 2, CutMetric::Soed), s.con1 + s.cnet);
}

TEST(Metrics, SeparatorLabelsIgnored) {
  const CsrMatrix m = testing::from_dense({{1, 1}, {1, 1}, {0, 1}});
  const Hypergraph h = column_net_model(m);
  const std::vector<index_t> part{0, -1, 1};  // middle row is "separator"
  const auto lambda = net_connectivity(h, part, 2);
  EXPECT_EQ(lambda[0], 1);
  EXPECT_EQ(lambda[1], 2);
}

class RecursivePartitionParam
    : public ::testing::TestWithParam<std::tuple<index_t, CutMetric>> {};

TEST_P(RecursivePartitionParam, PartitionsGridWithBalance) {
  const auto [k, metric] = GetParam();
  const CsrMatrix lap = testing::grid_laplacian(18, 18);
  const Hypergraph h = column_net_model(lap);
  const auto part = testing::static_partition(lap, k, metric, 0.05, 19);
  ASSERT_EQ(part.size(), static_cast<std::size_t>(h.num_vertices));
  std::vector<long long> sizes(k, 0);
  for (index_t p : part) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, k);
    ++sizes[p];
  }
  const long long mx = *std::max_element(sizes.begin(), sizes.end());
  const long long mn = *std::min_element(sizes.begin(), sizes.end());
  EXPECT_GE(mn, 1);
  EXPECT_LE(static_cast<double>(mx) / static_cast<double>(mn), 1.6);
  // Sanity on the metric value.
  const CutSizes s = evaluate_cutsizes(h, part, k);
  EXPECT_GT(s.cnet, 0);
  EXPECT_LE(s.cnet, s.con1 + 1);
  EXPECT_EQ(s.soed, s.con1 + s.cnet);
}

INSTANTIATE_TEST_SUITE_P(
    MetricsAndParts, RecursivePartitionParam,
    ::testing::Combine(::testing::Values<index_t>(2, 4, 8),
                       ::testing::Values(CutMetric::Con1, CutMetric::CutNet,
                                         CutMetric::Soed)));

TEST(RecursivePartition, ExactPartTargets) {
  // 60 columns of a random pattern partitioned into 6 parts of exactly 10.
  Rng rng(23);
  const CsrMatrix g = testing::random_sparse(80, 60, 0.1, rng);
  // Row-net model: the columns of g are the vertices, i.e. the rows of gᵀ.
  const auto part =
      testing::static_partition(transpose(g), 6, CutMetric::Con1, 0.0, 29);
  std::vector<index_t> sizes(6, 0);
  for (index_t p : part) ++sizes[p];
  for (index_t l = 0; l < 6; ++l) {
    // ε = 0 still allows one-vertex slack per bisection level (the FM
    // feasibility window), which compounds across log₂(6) levels; the RHS
    // pipeline rebalances to exactly B afterwards (tested in test_reorder).
    EXPECT_NEAR(sizes[l], 10, 3) << "part " << l;
  }
}

}  // namespace
}  // namespace pdslin
