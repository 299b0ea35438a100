#include "hypergraph/coarsen.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace pdslin {

namespace {

// Saturating adds for connectivity scores and merged net costs. Net costs
// compound: identical-net merging adds them at every coarsening level, and
// with --partition-values they start at |a_ij|-derived buckets instead of 1
// — on adversarial inputs the running sums can reach the index_t ceiling,
// where wrapping would be signed-overflow UB *and* flip match/FM
// comparisons. Clamping keeps the comparison order sane (anything at the
// ceiling is "as heavy as representable") and stays deterministic.
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

// Position-independent vertex key for tie-breaking: with many equal
// connectivity scores (regular meshes), breaking ties by raw index makes
// every vertex point the same way and almost no proposal is mutual — the
// commit frontier crawls one diagonal per round. A hashed key decorrelates
// the preferences, so a constant fraction of proposals pair up each round.
std::uint64_t vertex_key(index_t v) {
  auto x = static_cast<std::uint64_t>(v) + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<index_t> heavy_connectivity_matching_det(const Hypergraph& h,
                                                     unsigned threads) {
  const index_t n = h.num_vertices;
  std::vector<index_t> match(n, -1);
  std::vector<index_t> proposal(n, -1);
  // Mutual-proposal rounds: each leaves the unmatched stragglers whose best
  // partner preferred someone else; with hashed tie-breaking the pool
  // shrinks geometrically, so a fixed round count saturates in practice.
  constexpr int kMaxRounds = 8;
  for (int round = 0; round < kMaxRounds; ++round) {
    auto propose = [&](unsigned, long long lo, long long hi) {
      // Per-range scatter accumulator of shared net cost, one instance per
      // worker so ranges never share scratch.
      std::vector<long long> score(n, 0);
      std::vector<index_t> touched;
      for (index_t v = static_cast<index_t>(lo); v < static_cast<index_t>(hi);
           ++v) {
        proposal[v] = -1;
        if (match[v] >= 0) continue;
        touched.clear();
        for (index_t net : h.nets_of(v)) {
          const auto pin_span = h.pins(net);
          if (pin_span.size() > 512) continue;
          const long long c = h.net_cost[net];
          for (index_t u : pin_span) {
            if (u == v || match[u] >= 0) continue;
            if (score[u] == 0) touched.push_back(u);
            score[u] = sat_add_score(score[u], c);
          }
        }
        index_t best = -1;
        long long best_score = 0;
        std::uint64_t best_key = 0;
        for (index_t u : touched) {
          // Ties: lowest hashed key, then lowest index — independent of the
          // visit order and of the thread count.
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
    };
    if (threads > 1 && n > 1) {
      parallel_ranges(ThreadPool::shared(), n, threads, propose);
    } else {
      propose(0, 0, n);
    }
    // Commit pass: mutual proposals become matches. Serial scan in vertex
    // order — O(n) and order-independent (the committed set is exactly the
    // set of mutual pairs, however it is enumerated).
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
  PDSLIN_CHECK(match.size() == static_cast<std::size_t>(h.num_vertices));
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
    const std::size_t fine_base = static_cast<std::size_t>(cc) * h.num_vertices;
    const std::size_t coarse_base = static_cast<std::size_t>(cc) * nc;
    for (index_t v = 0; v < h.num_vertices; ++v) {
      hc.vwgt[coarse_base + c.map[v]] += h.vwgt[fine_base + v];
    }
  }

  // Remap pins, dedupe within net, drop single-pin nets, merge identical
  // nets (hash of sorted pin list → net id).
  std::vector<index_t> buf;
  std::unordered_map<std::size_t, std::vector<index_t>> buckets;  // hash → net ids
  hc.net_ptr.push_back(0);
  for (index_t n = 0; n < h.num_nets; ++n) {
    buf.clear();
    for (index_t v : h.pins(n)) buf.push_back(c.map[v]);
    std::sort(buf.begin(), buf.end());
    buf.erase(std::unique(buf.begin(), buf.end()), buf.end());
    if (buf.size() <= 1) continue;  // internal to a coarse vertex

    std::size_t hash = buf.size();
    for (index_t v : buf) {
      hash ^= static_cast<std::size_t>(v) + 0x9E3779B97F4A7C15ULL +
              (hash << 6) + (hash >> 2);
    }
    bool merged = false;
    auto it = buckets.find(hash);
    if (it != buckets.end()) {
      for (index_t existing : it->second) {
        const auto existing_pins = std::span<const index_t>(
            hc.net_pins.data() + hc.net_ptr[existing],
            static_cast<std::size_t>(hc.net_ptr[existing + 1] -
                                     hc.net_ptr[existing]));
        if (existing_pins.size() == buf.size() &&
            std::equal(existing_pins.begin(), existing_pins.end(), buf.begin())) {
          hc.net_cost[existing] =
              sat_add_cost(hc.net_cost[existing], h.net_cost[n]);
          merged = true;
          break;
        }
      }
    }
    if (!merged) {
      const index_t id = static_cast<index_t>(hc.net_cost.size());
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

}  // namespace pdslin
