#include "direct/mindeg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace pdslin {

namespace {

// A variable whose degree reaches max(16, kDenseFactor·√n) is dense.
constexpr double kDenseFactor = 10.0;

// Quotient-graph state. Node ids double as variable ids and (after
// elimination) element ids, as in AMD.
struct QuotientGraph {
  index_t n = 0;
  std::vector<std::vector<index_t>> adj_var;   // variable → variable neighbours
  std::vector<std::vector<index_t>> adj_elem;  // variable → adjacent elements
  std::vector<std::vector<index_t>> elem_vars; // element → member variables
  std::vector<index_t> nv;      // supervariable multiplicity (0 = absorbed)
  std::vector<char> state;      // 0 = variable, 1 = element, 2 = absorbed var
  std::vector<long long> degree;
  std::vector<index_t> mark;    // scatter stamps
  index_t stamp = 0;

  index_t fresh_stamp() { return ++stamp; }
};

// Exact external degree of variable v: total multiplicity of distinct
// variables reachable through direct edges and through adjacent elements.
long long compute_degree(QuotientGraph& q, index_t v) {
  const index_t s = q.fresh_stamp();
  q.mark[v] = s;
  long long d = 0;
  for (index_t u : q.adj_var[v]) {
    if (q.state[u] == 0 && q.mark[u] != s) {
      q.mark[u] = s;
      d += q.nv[u];
    }
  }
  for (index_t e : q.adj_elem[v]) {
    for (index_t u : q.elem_vars[e]) {
      if (q.state[u] == 0 && q.mark[u] != s) {
        q.mark[u] = s;
        d += q.nv[u];
      }
    }
  }
  return d;
}

}  // namespace

std::vector<index_t> minimum_degree_ordering(const CsrMatrix& a) {
  PDSLIN_CHECK(a.rows == a.cols);
  const index_t n = a.rows;
  if (n == 0) return {};

  QuotientGraph q;
  q.n = n;
  q.adj_var.resize(n);
  q.adj_elem.resize(n);
  q.elem_vars.resize(n);
  q.nv.assign(n, 1);
  q.state.assign(n, 0);
  q.degree.assign(n, 0);
  q.mark.assign(n, 0);

  for (index_t i = 0; i < n; ++i) {
    for (index_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      const index_t j = a.col_idx[p];
      if (j != i) q.adj_var[i].push_back(j);
    }
  }
  for (index_t i = 0; i < n; ++i) {
    std::sort(q.adj_var[i].begin(), q.adj_var[i].end());
    q.adj_var[i].erase(std::unique(q.adj_var[i].begin(), q.adj_var[i].end()),
                       q.adj_var[i].end());
    q.degree[i] = static_cast<long long>(q.adj_var[i].size());
  }

  const auto dense_threshold = static_cast<long long>(
      std::max(16.0, kDenseFactor * std::sqrt(static_cast<double>(n))));

  // Bucket queue keyed by min(degree, n). Lazy: entries may be stale.
  std::vector<std::vector<index_t>> bucket(static_cast<std::size_t>(n) + 1);
  std::vector<char> queued_dense(n, 0);
  std::vector<index_t> dense_vars;
  for (index_t v = 0; v < n; ++v) {
    if (q.degree[v] >= dense_threshold) {
      dense_vars.push_back(v);
      queued_dense[v] = 1;
    } else {
      bucket[q.degree[v]].push_back(v);
    }
  }

  std::vector<index_t> order;  // elimination order of supervariable reps
  order.reserve(n);
  std::vector<index_t> perm;   // final output (expanded supervariables)
  perm.reserve(n);
  std::vector<index_t> absorbed_into(n, -1);  // supervariable chains
  std::vector<std::vector<index_t>> members(n);  // rep → absorbed vars

  index_t cur_bucket = 0;
  index_t eliminated_weight = 0;

  std::vector<index_t> lp;  // variables of the new element

  while (eliminated_weight < n) {
    // Find the next genuine minimum-degree variable.
    index_t p = -1;
    while (cur_bucket <= n) {
      auto& b = bucket[cur_bucket];
      while (!b.empty()) {
        const index_t cand = b.back();
        b.pop_back();
        if (q.state[cand] == 0 && !queued_dense[cand] &&
            q.degree[cand] == cur_bucket) {
          p = cand;
          break;
        }
        // Re-file live candidates whose degree changed.
        if (q.state[cand] == 0 && !queued_dense[cand] &&
            q.degree[cand] < cur_bucket) {
          bucket[q.degree[cand]].push_back(cand);
          cur_bucket = static_cast<index_t>(q.degree[cand]);
          p = -1;
          break;
        }
        if (q.state[cand] == 0 && !queued_dense[cand]) {
          bucket[std::min<long long>(q.degree[cand], n)].push_back(cand);
        }
      }
      if (p >= 0) break;
      if (bucket[cur_bucket].empty()) {
        ++cur_bucket;
      }
    }
    if (p < 0) {
      // Only dense/postponed variables remain: eliminate them by degree.
      std::sort(dense_vars.begin(), dense_vars.end(), [&](index_t x, index_t y) {
        return q.degree[x] < q.degree[y];
      });
      for (index_t v : dense_vars) {
        if (q.state[v] != 0) continue;
        order.push_back(v);
        q.state[v] = 1;
        eliminated_weight += q.nv[v];
      }
      break;
    }

    // --- Eliminate p: build Lp = neighbourhood of p. ---
    const index_t s = q.fresh_stamp();
    q.mark[p] = s;
    lp.clear();
    for (index_t u : q.adj_var[p]) {
      if (q.state[u] == 0 && q.mark[u] != s) {
        q.mark[u] = s;
        lp.push_back(u);
      }
    }
    for (index_t e : q.adj_elem[p]) {
      for (index_t u : q.elem_vars[e]) {
        if (q.state[u] == 0 && q.mark[u] != s) {
          q.mark[u] = s;
          lp.push_back(u);
        }
      }
      q.elem_vars[e].clear();  // absorbed into the new element
      q.elem_vars[e].shrink_to_fit();
    }

    order.push_back(p);
    q.state[p] = 1;  // p becomes an element
    eliminated_weight += q.nv[p];
    q.elem_vars[p] = lp;
    q.adj_var[p].clear();
    q.adj_var[p].shrink_to_fit();
    const std::vector<index_t> absorbed_elems = std::move(q.adj_elem[p]);
    q.adj_elem[p].clear();

    // --- Update every variable in Lp. ---
    for (index_t v : lp) {
      // Prune direct edges now covered by element p (AMD's A_v := A_v \ Lp),
      // and drop eliminated/absorbed entries.
      auto& av = q.adj_var[v];
      av.erase(std::remove_if(av.begin(), av.end(),
                              [&](index_t u) {
                                return q.state[u] != 0 || q.mark[u] == s;
                              }),
               av.end());
      // Element list: remove absorbed elements, add p.
      auto& ev = q.adj_elem[v];
      ev.erase(std::remove_if(ev.begin(), ev.end(),
                              [&](index_t e) { return q.elem_vars[e].empty(); }),
               ev.end());
      ev.push_back(p);
      q.degree[v] = compute_degree(q, v);
      if (!queued_dense[v]) {
        if (q.degree[v] >= dense_threshold && q.adj_elem[v].size() <= 1) {
          // Postpone genuinely dense variables discovered late.
          queued_dense[v] = 1;
          dense_vars.push_back(v);
        } else {
          const auto key = static_cast<std::size_t>(
              std::min<long long>(q.degree[v], n));
          bucket[key].push_back(v);
          if (static_cast<index_t>(key) < cur_bucket) {
            cur_bucket = static_cast<index_t>(key);
          }
        }
      }
    }

    // --- Supervariable detection within Lp: merge variables with identical
    // quotient-graph adjacency (cheap hash, exact verification). ---
    if (lp.size() > 1) {
      std::vector<std::pair<std::uint64_t, index_t>> sig;
      sig.reserve(lp.size());
      for (index_t v : lp) {
        if (q.state[v] != 0) continue;
        std::uint64_t hash = 1469598103934665603ULL;
        for (index_t u : q.adj_var[v]) hash = (hash ^ static_cast<std::uint64_t>(u)) * 1099511628211ULL;
        std::uint64_t ehash = 0;
        for (index_t e : q.adj_elem[v]) ehash += static_cast<std::uint64_t>(e) * 0x9E3779B97F4A7C15ULL;
        sig.emplace_back(hash ^ ehash, v);
      }
      std::sort(sig.begin(), sig.end());
      for (std::size_t i = 0; i + 1 < sig.size(); ++i) {
        if (sig[i].first != sig[i + 1].first) continue;
        const index_t x = sig[i].second, y = sig[i + 1].second;
        if (q.state[x] != 0 || q.state[y] != 0) continue;
        // Exact check (sorted compare; element lists are small).
        auto ex = q.adj_elem[x], ey = q.adj_elem[y];
        std::sort(ex.begin(), ex.end());
        std::sort(ey.begin(), ey.end());
        auto ax = q.adj_var[x], ay = q.adj_var[y];
        std::sort(ax.begin(), ax.end());
        std::sort(ay.begin(), ay.end());
        // Remove mutual edges before comparing.
        ax.erase(std::remove(ax.begin(), ax.end(), y), ax.end());
        ay.erase(std::remove(ay.begin(), ay.end(), x), ay.end());
        if (ex == ey && ax == ay) {
          // Absorb y into x.
          q.nv[x] += q.nv[y];
          q.nv[y] = 0;
          q.state[y] = 2;
          absorbed_into[y] = x;
          members[x].push_back(y);
          q.degree[x] = compute_degree(q, x);
        }
      }
    }
  }

  // Expand supervariables into the final permutation.
  std::vector<char> emitted(n, 0);
  for (index_t rep : order) {
    // Emit rep and everything absorbed into it (transitively).
    std::vector<index_t> stack{rep};
    while (!stack.empty()) {
      const index_t v = stack.back();
      stack.pop_back();
      if (emitted[v]) continue;
      emitted[v] = 1;
      perm.push_back(v);
      for (index_t m : members[v]) stack.push_back(m);
    }
  }
  // Safety: emit anything missed (disconnected corner cases).
  for (index_t v = 0; v < n; ++v) {
    if (!emitted[v]) perm.push_back(v);
  }
  PDSLIN_CHECK(perm.size() == static_cast<std::size_t>(n));
  return perm;
}

}  // namespace pdslin
