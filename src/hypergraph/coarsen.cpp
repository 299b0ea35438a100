#include "hypergraph/coarsen.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

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

// SplitMix64 finalizer.
std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Position-independent vertex key for tie-breaking: with many equal
// connectivity scores (regular meshes), breaking ties by raw index makes
// every vertex point the same way and almost no proposal is mutual — the
// commit frontier crawls one diagonal per round. A hashed key decorrelates
// the preferences, so a constant fraction of proposals pair up each round.
std::uint64_t vertex_key(index_t v) {
  return mix64(static_cast<std::uint64_t>(v) + 0x9E3779B97F4A7C15ULL);
}

}  // namespace

std::vector<index_t> heavy_connectivity_matching_det(const Hypergraph& h,
                                                     unsigned threads) {
  const index_t n = h.num_vertices;
  std::vector<index_t> match(n, -1);
  // proposal[v] is v's best unmatched partner, -1 if it has none. A
  // candidate's score depends on the hypergraph alone and the candidate set
  // only shrinks as vertices match, so a proposal stays v's best until its
  // target is matched, and a vertex without a candidate never gets one.
  // Each round therefore rescores only the `stale` vertices, whose partner
  // was matched by the previous commit; the rest propose the same partner
  // again. That is the matching of rescoring everyone, bit for bit.
  std::vector<index_t> proposal(n, -1);
  std::vector<index_t> active(n);  // unmatched, may still have a candidate
  std::iota(active.begin(), active.end(), 0);
  std::vector<index_t> stale = active;
  // Per-range scatter accumulator of shared net cost, one per range index
  // so concurrent ranges never share scratch; kept across rounds. Each holds
  // an n-long score array, so the range count is bounded by the pool, not
  // by the caller's thread count.
  struct Scratch {
    std::vector<long long> score;
    std::vector<index_t> touched;
  };
  const unsigned ranges =
      threads > 1 ? std::min(threads, ThreadPool::shared().size()) : 1u;
  std::vector<Scratch> scratch(ranges);
  auto propose = [&](unsigned range, long long lo, long long hi) {
    std::vector<long long>& score = scratch[range].score;
    std::vector<index_t>& touched = scratch[range].touched;
    if (score.empty()) score.assign(n, 0);
    for (long long i = lo; i < hi; ++i) {
      const index_t v = stale[i];
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
  // Mutual-proposal rounds: each leaves the unmatched stragglers whose best
  // partner preferred someone else; with hashed tie-breaking the pool
  // shrinks geometrically, so a fixed round count saturates in practice.
  constexpr int kMaxRounds = 8;
  for (int round = 0; round < kMaxRounds; ++round) {
    const auto count = static_cast<long long>(stale.size());
    if (ranges > 1 && count > 1) {
      parallel_ranges(ThreadPool::shared(), count, ranges, propose);
    } else {
      propose(0, 0, count);
    }
    std::erase_if(active, [&](index_t v) { return proposal[v] < 0; });
    // Commit pass: mutual proposals become matches. Serial scan — O(active)
    // and order-independent (the committed set is exactly the set of mutual
    // pairs, however it is enumerated).
    bool any = false;
    for (index_t v : active) {
      if (match[v] >= 0) continue;
      const index_t u = proposal[v];
      if (u > v && proposal[u] == v) {
        match[v] = u;
        match[u] = v;
        any = true;
      }
    }
    if (!any) break;
    std::erase_if(active, [&](index_t v) { return match[v] >= 0; });
    stale.clear();
    for (index_t v : active) {
      if (match[proposal[v]] >= 0) stale.push_back(v);
    }
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
  // nets into the first one seen. Identical nets are found through a flat
  // open-addressing table: each slot holds one coarse net, found by the
  // hash of its sorted pin list; equal hashes probe on to the next slot.
  // At most one coarse net matches a pin list (a second would have merged
  // into the first), so the coarse hypergraph does not depend on the table.
  std::size_t capacity = 1;
  while (capacity < 2 * static_cast<std::size_t>(h.num_nets)) capacity <<= 1;
  const std::size_t mask = capacity - 1;
  std::vector<index_t> slot(capacity, -1);  // coarse net id, -1 = empty
  std::vector<std::size_t> net_hash;        // per coarse net
  std::vector<index_t> buf;
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
    for (std::size_t i = mix64(hash) & mask;; i = (i + 1) & mask) {
      const index_t id = slot[i];
      if (id < 0) {
        slot[i] = static_cast<index_t>(hc.net_cost.size());
        net_hash.push_back(hash);
        hc.net_pins.insert(hc.net_pins.end(), buf.begin(), buf.end());
        hc.net_ptr.push_back(static_cast<index_t>(hc.net_pins.size()));
        hc.net_cost.push_back(h.net_cost[n]);
        break;
      }
      if (net_hash[id] == hash &&
          hc.net_ptr[id + 1] - hc.net_ptr[id] ==
              static_cast<index_t>(buf.size()) &&
          std::equal(buf.begin(), buf.end(),
                     hc.net_pins.begin() + hc.net_ptr[id])) {
        hc.net_cost[id] = sat_add_cost(hc.net_cost[id], h.net_cost[n]);
        break;
      }
    }
  }
  hc.num_nets = static_cast<index_t>(hc.net_cost.size());
  hc.build_vertex_lists();
  return c;
}

}  // namespace pdslin
