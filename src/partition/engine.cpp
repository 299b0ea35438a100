#include "partition/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "graph/bisect.hpp"
#include "graph/separator.hpp"
#include "hypergraph/bisect.hpp"
#include "hypergraph/hypergraph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/convert.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pdslin::partition {

namespace {

// Deterministic per-node seed: depends only on the recursion position
// (part range), never on execution order — this is what makes the parallel
// recursion bit-identical to the serial one.
std::uint64_t node_seed(std::uint64_t base, index_t low, index_t k) {
  std::uint64_t x = base ^ (static_cast<std::uint64_t>(low) << 32) ^
                    static_cast<std::uint64_t>(k);
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Balance ratio (max/min interior part size) of an induced partition;
/// 1e30 when a part came out empty.
double balance_ratio_of(const DissectionResult& d) {
  if (d.num_parts <= 0) return 1e30;
  std::vector<long long> sizes(static_cast<std::size_t>(d.num_parts), 0);
  for (index_t label : d.part) {
    if (label >= 0) ++sizes[static_cast<std::size_t>(label)];
  }
  long long mx = 0, mn = static_cast<long long>(d.part.size()) + 1;
  for (long long s : sizes) {
    mx = std::max(mx, s);
    mn = std::min(mn, s);
  }
  return mn > 0 ? static_cast<double>(mx) / static_cast<double>(mn) : 1e30;
}

// ---------------------------------------------------------------------------
// RHB path
// ---------------------------------------------------------------------------

// Submatrix carried through the recursion: local CSR rows over a local
// column numbering, plus the global ids and the per-column (net) costs.
struct SubMatrix {
  CsrMatrix m;                    // pattern-only, local indices
  std::vector<index_t> row_ids;   // local row → global row of M
  std::vector<index_t> col_cost;  // per local column
};

struct RhbContext {
  const RhbOptions* opt = nullptr;
  const CsrMatrix* full = nullptr;  // full M (for w2)
  const EngineOptions* eng = nullptr;
  std::vector<index_t> row_part;  // disjoint subtree writes: race-free
  std::uint64_t base_seed = 1;
  std::atomic<long long>* multilevel = nullptr;
};

Hypergraph model_of(const SubMatrix& sub, const RhbContext& ctx, int depth) {
  Hypergraph h = column_net_model(sub.m);
  h.net_cost.assign(sub.col_cost.begin(), sub.col_cost.end());

  const bool dynamic = ctx.opt->dynamic_weights && depth > 0;
  const bool multi =
      ctx.opt->constraints == RhbConstraintMode::MultiW1W2 && dynamic;
  if (!dynamic) {
    // First bisection: no information yet → unit weights (paper §III-C).
    h.num_constraints = 1;
    h.vwgt.assign(h.num_vertices, 1);
    return h;
  }
  h.num_constraints = multi ? 2 : 1;
  h.vwgt.assign(static_cast<std::size_t>(h.num_constraints) * h.num_vertices, 0);
  for (index_t i = 0; i < h.num_vertices; ++i) {
    h.vwgt[i] = std::max<index_t>(1, sub.m.row_nnz(i));  // w1
  }
  if (multi) {
    for (index_t i = 0; i < h.num_vertices; ++i) {
      const index_t g = sub.row_ids[i];
      const long long w2 = ctx.full->row_nnz(g);
      const long long w1 = h.vwgt[i];
      // Complementary constraint: predicted interface contribution.
      h.vwgt[static_cast<std::size_t>(h.num_vertices) + i] =
          std::max<long long>(1, w2 - w1 + 1);
    }
  }
  return h;
}

// Build the side-s child submatrix, applying the metric's net-inheritance
// policy to cut columns.
SubMatrix child_of(const SubMatrix& sub, const std::vector<signed char>& side,
                   int s, CutMetric metric) {
  const index_t nrows = sub.m.rows;
  const index_t ncols = sub.m.cols;

  // Which columns survive on side s, and with what cost.
  std::vector<signed char> col_state(ncols, 0);  // bit0: side0 pin, bit1: side1
  for (index_t i = 0; i < nrows; ++i) {
    const signed char bit = side[i] == 0 ? 1 : 2;
    for (index_t j : sub.m.row_cols(i)) col_state[j] |= bit;
  }
  std::vector<index_t> new_col(ncols, -1);
  SubMatrix child;
  const signed char mine = s == 0 ? 1 : 2;
  for (index_t j = 0; j < ncols; ++j) {
    if (!(col_state[j] & mine)) continue;  // no pins on this side
    const bool cut = col_state[j] == 3;
    index_t cost = sub.col_cost[j];
    if (cut) {
      if (metric == CutMetric::CutNet) continue;        // net discarding
      if (metric == CutMetric::Soed) cost = (cost + 1) / 2;  // cost halving
    }
    new_col[j] = static_cast<index_t>(child.col_cost.size());
    child.col_cost.push_back(cost);
  }

  child.m.cols = static_cast<index_t>(child.col_cost.size());
  child.m.row_ptr.push_back(0);
  for (index_t i = 0; i < nrows; ++i) {
    if (side[i] != s) continue;
    for (index_t j : sub.m.row_cols(i)) {
      if (new_col[j] >= 0) child.m.col_idx.push_back(new_col[j]);
    }
    child.m.row_ptr.push_back(static_cast<index_t>(child.m.col_idx.size()));
    child.row_ids.push_back(sub.row_ids[i]);
  }
  child.m.rows = static_cast<index_t>(child.row_ids.size());
  return child;
}

void rhb_recurse(RhbContext& ctx, const SubMatrix& sub, index_t k, index_t low,
                 int depth) {
  if (k == 1 || sub.m.rows == 0) {
    for (index_t g : sub.row_ids) ctx.row_part[g] = low;
    return;
  }
  ctx.multilevel->fetch_add(1, std::memory_order_relaxed);
  const Hypergraph h = model_of(sub, ctx, depth);
  // Unlike NGD's per-bisection balance (whose drift compounds level by
  // level — the weakness §III highlights), RHB budgets the user's global ε
  // across all log₂(k) levels: (1+ε_level)^levels = 1+ε.
  const int levels = std::max(
      1, static_cast<int>(std::round(std::log2(static_cast<double>(
             std::max<index_t>(2, ctx.opt->num_parts))))));
  const double eps_level =
      std::pow(1.0 + ctx.opt->epsilon, 1.0 / static_cast<double>(levels)) - 1.0;
  // Any k: split into k0 = ⌊k/2⌋ and k1 = k − k0 parts and aim side 0 at
  // the k0/k share (exactly ½ for the powers of two the solver uses).
  const index_t k0 = k / 2;
  const index_t k1 = k - k0;
  HgBisectOptions bopt;
  bopt.target0.assign(h.num_constraints,
                      static_cast<double>(k0) / static_cast<double>(k));
  bopt.epsilon.assign(h.num_constraints, eps_level);
  bopt.coarsen_to = ctx.opt->coarsen_to;
  bopt.refine_passes = ctx.opt->refine_passes;
  bopt.initial_tries = ctx.opt->initial_tries;
  bopt.seed = node_seed(ctx.base_seed, low, k);
  bopt.matching_threads = ctx.eng->threads;
  const HgBisection bis = [&] {
    PDSLIN_SPAN_I("rhb.bisect", depth);
    static obs::Counter& bisections = obs::counter("rhb.bisections");
    bisections.add();
    return bisect_hypergraph(h, bopt);
  }();

  // Spawn the first child as a pool task while this thread handles the
  // second, as long as the spawn budget (≈ log2(threads) levels) lasts.
  const bool spawn =
      ctx.eng->threads > 1 &&
      (1u << static_cast<unsigned>(depth)) < ctx.eng->threads && k > 2;
  SubMatrix child0 = child_of(sub, bis.side, 0, ctx.opt->metric);
  SubMatrix child1 = child_of(sub, bis.side, 1, ctx.opt->metric);
  if (spawn) {
    TaskGroup group(ThreadPool::shared());
    group.run([&] { rhb_recurse(ctx, child0, k0, low, depth + 1); });
    rhb_recurse(ctx, child1, k1, low + k0, depth + 1);
    group.wait();
  } else {
    rhb_recurse(ctx, child0, k0, low, depth + 1);
    rhb_recurse(ctx, child1, k1, low + k0, depth + 1);
  }
}

/// Induced unknown partition: a column of the full M is interior to part p
/// iff all its rows are in p; otherwise it is a separator unknown
/// (paper Eq. (10) → Eq. (12)).
DissectionResult induce_unknowns(const CsrMatrix& m, const CscMatrix& mc,
                                 const std::vector<index_t>& row_part,
                                 index_t num_parts) {
  DissectionResult unknowns;
  unknowns.num_parts = num_parts;
  unknowns.part.assign(m.cols, -2);  // -2 = untouched so far
  std::vector<long long> part_load(static_cast<std::size_t>(num_parts), 0);
  for (index_t j = 0; j < m.cols; ++j) {
    index_t label = -2;
    for (index_t r : mc.col_rows(j)) {
      const index_t p = row_part[r];
      if (label == -2) {
        label = p;
      } else if (label != p) {
        label = DissectionResult::kSeparator;
        break;
      }
    }
    if (label == -2) {
      // Column with no rows (unknown untouched by M): park it in the
      // lightest subdomain; it couples to nothing.
      label = static_cast<index_t>(
          std::min_element(part_load.begin(), part_load.end()) -
          part_load.begin());
    }
    unknowns.part[j] = label;
    if (label >= 0) ++part_load[static_cast<std::size_t>(label)];
  }
  unknowns.separator_size = static_cast<index_t>(
      std::count(unknowns.part.begin(), unknowns.part.end(),
                 DissectionResult::kSeparator));
  return unknowns;
}

// ---------------------------------------------------------------------------
// NGD path
// ---------------------------------------------------------------------------

struct NgdContext {
  const Graph* g = nullptr;
  const EngineOptions* eng = nullptr;
  double epsilon = 0.05;
  std::uint64_t base_seed = 1;
  std::vector<index_t> part;  // disjoint subtree writes: race-free
  std::atomic<long long>* multilevel = nullptr;
};

// Returns this subtree's separator vertices in elimination order (deepest
// levels first, this node's separator last) — concatenated deterministically
// up the tree, so the order never depends on task scheduling.
std::vector<index_t> ngd_recurse(NgdContext& ctx,
                                 const std::vector<index_t>& verts, index_t k,
                                 index_t low, int depth,
                                 std::vector<index_t>& local_of) {
  if (k == 1 || verts.size() <= 1) {
    for (index_t v : verts) ctx.part[v] = low;
    return {};
  }
  PDSLIN_SPAN_I("ngd.bisect", depth);
  Graph sub = induced_subgraph(*ctx.g, verts, local_of);
  ctx.multilevel->fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& bisections = obs::counter("ngd.bisections");
  bisections.add();
  GraphBisectOptions opt;
  opt.epsilon = ctx.epsilon;
  opt.seed = node_seed(ctx.base_seed, low, k);
  const GraphBisection bis = bisect_graph(sub, opt);
  const VertexSeparator sep = vertex_separator_from_bisection(sub, bis);
  for (index_t v : verts) local_of[v] = -1;  // reset scratch before reuse

  std::vector<index_t> left, right, sep_verts;
  left.reserve(verts.size() / 2);
  right.reserve(verts.size() / 2);
  for (std::size_t i = 0; i < verts.size(); ++i) {
    switch (sep.label[i]) {
      case SepLabel::PartA: left.push_back(verts[i]); break;
      case SepLabel::PartB: right.push_back(verts[i]); break;
      case SepLabel::Separator:
        ctx.part[verts[i]] = DissectionResult::kSeparator;
        sep_verts.push_back(verts[i]);
        break;
    }
  }
  const bool spawn =
      ctx.eng->threads > 1 &&
      (1u << static_cast<unsigned>(depth)) < ctx.eng->threads && k > 2;
  std::vector<index_t> order;
  if (spawn) {
    std::vector<index_t> left_order;
    TaskGroup group(ThreadPool::shared());
    group.run([&] {
      // The spawned subtree gets its own scratch map; allocation is bounded
      // by the spawn budget, not the tree size.
      std::vector<index_t> scratch(static_cast<std::size_t>(ctx.g->n), -1);
      left_order = ngd_recurse(ctx, left, k / 2, low, depth + 1, scratch);
    });
    order = ngd_recurse(ctx, right, k / 2, low + k / 2, depth + 1, local_of);
    group.wait();
    left_order.insert(left_order.end(), order.begin(), order.end());
    order = std::move(left_order);
  } else {
    order = ngd_recurse(ctx, left, k / 2, low, depth + 1, local_of);
    std::vector<index_t> right_order =
        ngd_recurse(ctx, right, k / 2, low + k / 2, depth + 1, local_of);
    order.insert(order.end(), right_order.begin(), right_order.end());
  }
  order.insert(order.end(), sep_verts.begin(), sep_verts.end());
  return order;
}

}  // namespace

EngineResult rhb_engine(const CsrMatrix& m, const RhbOptions& opt,
                        const EngineOptions& eng) {
  PDSLIN_CHECK_MSG(opt.num_parts >= 1, "num_parts must be positive");
  PDSLIN_SPAN("partition.rhb_engine");

  // Root inputs shared by every attempt.
  SubMatrix root;
  root.m = pattern_of(m);
  root.row_ids.resize(m.rows);
  std::iota(root.row_ids.begin(), root.row_ids.end(), 0);
  if (eng.col_value.empty()) {
    root.col_cost.assign(m.cols, opt.metric == CutMetric::Soed ? 2 : 1);
  } else {
    PDSLIN_CHECK_MSG(eng.col_value.size() == static_cast<std::size_t>(m.cols),
                     "col_value must hold one weight per unknown");
    // Value-weighted nets: seed each column's cost from its |a_ij| bucket.
    // Soed keeps its ×2 so the (cost+1)/2 halving of cut nets stays exact.
    root.col_cost.assign(eng.col_value.begin(), eng.col_value.end());
    if (opt.metric == CutMetric::Soed) {
      for (index_t& c : root.col_cost) c *= 2;
    }
  }
  const CscMatrix mc = csr_to_csc(m);

  std::atomic<long long> multilevel{0};
  RhbContext ctx;
  ctx.opt = &opt;
  ctx.full = &m;
  ctx.eng = &eng;
  ctx.multilevel = &multilevel;

  // Multi-start: the recursion is cheap next to factorization, so take the
  // attempt with the best induced subdomain balance (then separator size).
  const int attempts = std::max(1, opt.attempts);
  EngineResult best;
  double best_ratio = 0.0;
  Rng seeder(opt.seed);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    ctx.base_seed = attempt == 0 ? opt.seed : seeder.next();
    ctx.row_part.assign(static_cast<std::size_t>(m.rows), 0);
    rhb_recurse(ctx, root, opt.num_parts, 0, 0);

    EngineResult r;
    r.unknowns = induce_unknowns(m, mc, ctx.row_part, opt.num_parts);
    r.row_part = std::move(ctx.row_part);
    const double ratio = balance_ratio_of(r.unknowns);
    const bool better =
        attempt == 0 || ratio < best_ratio - 1e-9 ||
        (std::abs(ratio - best_ratio) <= 1e-9 &&
         r.unknowns.separator_size < best.unknowns.separator_size);
    if (better) {
      best = std::move(r);
      best_ratio = ratio;
    }
  }

  best.stats.multilevel_subtrees = multilevel.load();
  best.stats.separator_size = best.unknowns.separator_size;
  best.stats.balance_ratio = best_ratio;
  return best;
}

EngineResult ngd_engine(const Graph& g, const NgdOptions& opt,
                        const EngineOptions& eng) {
  PDSLIN_CHECK_MSG(opt.num_parts >= 1 &&
                       (opt.num_parts & (opt.num_parts - 1)) == 0,
                   "num_parts must be a power of two");
  PDSLIN_SPAN("partition.ngd_engine");

  std::atomic<long long> multilevel{0};
  NgdContext ctx;
  ctx.g = &g;
  ctx.eng = &eng;
  ctx.epsilon = opt.epsilon;
  ctx.base_seed = opt.seed;
  ctx.part.assign(static_cast<std::size_t>(g.n), 0);
  ctx.multilevel = &multilevel;

  std::vector<index_t> all(static_cast<std::size_t>(g.n));
  std::iota(all.begin(), all.end(), 0);
  std::vector<index_t> scratch(static_cast<std::size_t>(g.n), -1);
  std::vector<index_t> sep_order =
      ngd_recurse(ctx, all, opt.num_parts, 0, /*depth=*/0, scratch);

  EngineResult res;
  res.unknowns.part = std::move(ctx.part);
  res.unknowns.separator_order = std::move(sep_order);
  res.unknowns.num_parts = opt.num_parts;
  res.unknowns.separator_size = static_cast<index_t>(
      std::count(res.unknowns.part.begin(), res.unknowns.part.end(),
                 DissectionResult::kSeparator));
  PDSLIN_ASSERT(is_valid_dissection(g, res.unknowns));
  res.stats.multilevel_subtrees = multilevel.load();
  res.stats.separator_size = res.unknowns.separator_size;
  res.stats.balance_ratio = balance_ratio_of(res.unknowns);
  return res;
}

}  // namespace pdslin::partition
