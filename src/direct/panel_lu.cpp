#include "direct/panel_lu.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <tuple>
#include <utility>

#include "direct/kernels.hpp"
#include "direct/supernodes.hpp"
#include "direct/symbolic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/pipeline.hpp"
#include "sparse/convert.hpp"
#include "sparse/symmetrize.hpp"
#include "util/error.hpp"

namespace pdslin {

namespace {

/// One supernode→supernode update edge: source panel `src` updates the
/// target through the rows rows[jb, je) of src's row list (the target
/// columns hit by src's below-diagonal block).
struct UpdateEdge {
  index_t src;
  index_t jb, je;
};

struct PanelSymbolic {
  Supernodes sn;                      // the panels; the last one is the tail
  index_t tail = 0;                   // first column of the dense tail
  std::vector<index_t> sn_parent;     // supernodal elimination forest
  std::vector<index_t> rows;          // concatenated sorted row lists
  std::vector<std::size_t> row_ptr;   // per-panel slice of `rows`
  std::vector<index_t> tri0;          // local row of the first panel column
  std::vector<std::size_t> arena_off; // packed-panel offsets (cells)
  std::size_t arena_cells = 0;
  std::vector<std::vector<UpdateEdge>> upd;  // per target, ascending src
  long long l_nnz_bound = 0;          // symbolic L entries (incl. diagonal)
};

/// `sn`'s panels before column t (the one straddling t cut at t), then
/// [t, n) in pieces of `width` columns (0 = one piece).
Supernodes cut_at_tail(const Supernodes& sn, index_t t, index_t width) {
  const index_t n = static_cast<index_t>(sn.of_column.size());
  Supernodes out;
  for (index_t s = 0; s < sn.count() && sn.start[s] < t; ++s) {
    out.start.push_back(sn.start[s]);
  }
  for (index_t c = t; c < n; c += width > 0 ? width : n - t) {
    out.start.push_back(c);
  }
  out.start.push_back(n);
  out.of_column.resize(n);
  for (index_t s = 0; s < out.count(); ++s) {
    std::fill(out.of_column.begin() + out.start[s],
              out.of_column.begin() + out.start[s + 1], s);
  }
  return out;
}

PanelSymbolic panel_symbolic(const CscMatrix& a, const LuOptions& opt) {
  PDSLIN_SPAN("lu.panel.symbolic");
  const index_t n = a.rows;

  // Pattern of Aᵀ, reinterpreting the CSC arrays as CSR (no values).
  CsrMatrix at;
  at.rows = a.cols;
  at.cols = a.rows;
  at.row_ptr = a.col_ptr;
  at.col_idx = a.row_idx;
  const CsrMatrix sym = symmetrize_abs(at);
  const SymbolicFactor sf = symbolic_cholesky(sym);

  // The dense tail: the trailing columns whose symbolic columns are full to
  // the bottom. Its rows all share one pattern, so row exchanges among them
  // change no structure; it is factored as one panel with row pivoting.
  PanelSymbolic ps;
  ps.tail = n;
  while (ps.tail > 0 && sf.col_counts[ps.tail - 1] == n - ps.tail + 1) {
    --ps.tail;
  }
  ps.sn = cut_at_tail(relaxed_supernodes(sf.parent, sf.col_counts,
                                         opt.panel_max_width,
                                         std::max(0.0, opt.panel_relax)),
                      ps.tail, 0);
  const index_t np = ps.sn.count();

  const CscMatrix lpat = cholesky_pattern(sym);  // diag-first, sorted
  const CscMatrix upat = transpose(lpat);        // col j = row j of L, sorted
  ps.l_nnz_bound = lpat.nnz();

  ps.sn_parent.resize(np);
  ps.row_ptr.assign(np + 1, 0);
  ps.tri0.resize(np);
  ps.arena_off.resize(np);

  // Per-panel row list: union of the full symbolic column patterns (U rows
  // above the panel, the triangle — always complete, every member column
  // contributes its diagonal — and the shared below-diagonal rows).
  std::vector<index_t> mark(n, -1);
  std::vector<index_t> local;
  for (index_t p = 0; p < np; ++p) {
    const index_t c0 = ps.sn.start[p], c1 = ps.sn.start[p + 1];
    local.clear();
    for (index_t j = c0; j < c1; ++j) {
      for (index_t r : upat.col_rows(j)) {
        if (mark[r] != p) { mark[r] = p; local.push_back(r); }
      }
      for (index_t r : lpat.col_rows(j)) {
        if (mark[r] != p) { mark[r] = p; local.push_back(r); }
      }
    }
    std::sort(local.begin(), local.end());
    const auto t0 = std::lower_bound(local.begin(), local.end(), c0);
    ps.tri0[p] = static_cast<index_t>(t0 - local.begin());
    PDSLIN_CHECK_MSG(local[ps.tri0[p] + (c1 - c0) - 1] == c1 - 1,
                     "panel triangle is not contiguous");
    ps.arena_off[p] = ps.arena_cells;
    ps.arena_cells += local.size() * static_cast<std::size_t>(c1 - c0);
    ps.rows.insert(ps.rows.end(), local.begin(), local.end());
    ps.row_ptr[p + 1] = ps.rows.size();

    const index_t last = c1 - 1;
    ps.sn_parent[p] = sf.parent[last] < 0 ? -1 : ps.sn.of_column[sf.parent[last]];
  }

  // Update edges: the below-diagonal rows of panel d, grouped by target
  // panel. Built in ascending d, so every target sees its updaters in
  // ascending pivot order — the order the numeric phase must apply them in.
  ps.upd.resize(np);
  for (index_t d = 0; d < np; ++d) {
    const index_t c1 = ps.sn.start[d + 1];
    const index_t w = ps.sn.width(d);
    std::size_t q = ps.row_ptr[d] + ps.tri0[d] + w;  // first below-diag row
    const std::size_t qe = ps.row_ptr[d + 1];
    while (q < qe) {
      const index_t t = ps.sn.of_column[ps.rows[q]];
      std::size_t r = q;
      while (r < qe && ps.sn.of_column[ps.rows[r]] == t) ++r;
      PDSLIN_CHECK(ps.rows[q] >= c1 && t > d);
      ps.upd[t].push_back({d, static_cast<index_t>(q - ps.row_ptr[d]),
                           static_cast<index_t>(r - ps.row_ptr[d])});
      q = r;
    }
  }
  return ps;
}

/// Per-worker scratch: the global→local row map for the panel being built
/// plus reusable gather buffers.
struct Workspace {
  std::vector<index_t> rowpos;  // size n, -1 outside the current panel
  std::vector<index_t> pos;     // update-local positions in the target
  std::vector<index_t> jloc;    // target-local column indices
  std::vector<value_t> y;       // TRSM block (w_d × nJ, row-major)
  std::vector<value_t> c;       // GEMM block (ni × nJ, column-major)
  long long gemm_flops = 0;
  long long other_flops = 0;
};

/// Factor one panel in place: right-looking over blocks of `block` columns,
/// left-looking inside each (panel::factorize_columns). Every element still
/// takes its updates in ascending pivot order, so the factors are the
/// scalar kernel's bit for bit. A panel before the tail is one block with
/// pivots confined to the diagonal (perm == nullptr); the dense tail passes
/// the width cap and its row order, and exchanges rows.
bool factor_panel(value_t* pan, index_t nr, index_t tri0, index_t w,
                  index_t block, const LuOptions& opt, index_t* perm,
                  Workspace& s) {
  if (block <= 0) block = w;
  const index_t depth = nr - tri0;
  for (index_t j0 = 0; j0 < w; j0 += block) {
    const index_t j1 = std::min(w, j0 + block);
    const index_t bw = j1 - j0;
    if (!panel::factorize_columns(pan, nr, tri0, w, j0, j1, opt.pivot_tol,
                                  opt.min_pivot, perm)) {
      return false;
    }
    for (index_t jj = j0; jj < j1; ++jj) {
      s.other_flops += static_cast<long long>(jj - j0) * (depth - jj);
    }
    const index_t rest = w - j1;
    if (rest == 0) break;

    // Trailing update: U12 = L11⁻¹·A12 (gathered row-major, solved, put
    // back), then A22 −= L21·U12 in place.
    const index_t ni = depth - j1;
    s.pos.resize(bw);
    s.jloc.resize(rest);
    for (index_t k = 0; k < bw; ++k) s.pos[k] = tri0 + j0 + k;
    for (index_t q = 0; q < rest; ++q) s.jloc[q] = j1 + q;
    s.y.resize(static_cast<std::size_t>(bw) * rest);
    panel::gather_block(pan, nr, s.pos.data(), bw, s.jloc.data(), rest, true,
                        s.y.data());
    value_t* blk = pan + static_cast<std::size_t>(j0) * nr;
    panel::trsm_unit_lower(blk, nr, tri0 + j0, bw, s.y.data(), rest);
    panel::scatter_block(s.y.data(), bw, rest, true, s.pos.data(),
                         s.jloc.data(), pan, nr);
    panel::gemm_minus(blk + tri0 + j1, nr, ni, bw, s.y.data(), rest,
                      pan + static_cast<std::size_t>(j1) * nr + tri0 + j1,
                      nr);
    s.gemm_flops += static_cast<long long>(ni) * rest * bw;
    s.other_flops += static_cast<long long>(rest) * bw * (bw - 1) / 2;
  }
  return true;
}

bool panel_numeric(const CscMatrix& a, const LuOptions& opt,
                   const PanelSymbolic& ps, std::vector<value_t>& arena,
                   std::vector<index_t>& tail_perm, LuPanelStats& stats) {
  PDSLIN_SPAN("lu.panel.numeric");
  const index_t n = a.rows;
  const index_t np = ps.sn.count();
  arena.assign(ps.arena_cells, 0.0);

  const unsigned workers = std::max(1u, opt.threads);
  const unsigned nw = std::min<unsigned>(workers, np == 0 ? 1u
                                                          : static_cast<unsigned>(np));
  std::vector<Workspace> ws(nw);
  for (auto& w : ws) w.rowpos.assign(n, -1);

  tail_perm.resize(n - ps.tail);
  std::iota(tail_perm.begin(), tail_perm.end(), index_t{0});
  std::atomic<bool> abort{false};

  auto body = [&](unsigned widx, index_t p) {
    if (abort.load(std::memory_order_relaxed)) return;
    Workspace& s = ws[widx];
    const index_t c0 = ps.sn.start[p], c1 = ps.sn.start[p + 1];
    const index_t wp = c1 - c0;
    const index_t* prows = ps.rows.data() + ps.row_ptr[p];
    const index_t nr = static_cast<index_t>(ps.row_ptr[p + 1] - ps.row_ptr[p]);
    value_t* pan = arena.data() + ps.arena_off[p];

    for (index_t i = 0; i < nr; ++i) s.rowpos[prows[i]] = i;

    // Scatter A's columns (assignment in storage order: duplicate entries
    // resolve last-wins, exactly as the scalar kernel's scatter does).
    for (index_t j = c0; j < c1; ++j) {
      value_t* col = pan + static_cast<std::size_t>(j - c0) * nr;
      for (index_t ptr = a.col_ptr[j]; ptr < a.col_ptr[j + 1]; ++ptr) {
        col[s.rowpos[a.row_idx[ptr]]] = a.values[ptr];
      }
    }

    // External updates, ascending source panel = ascending pivot blocks.
    for (const UpdateEdge& e : ps.upd[p]) {
      const index_t d = e.src;
      const index_t d0 = ps.sn.start[d];
      const index_t wd = ps.sn.width(d);
      const index_t* drows = ps.rows.data() + ps.row_ptr[d];
      const index_t nrd =
          static_cast<index_t>(ps.row_ptr[d + 1] - ps.row_ptr[d]);
      const value_t* dpan = arena.data() + ps.arena_off[d];
      const index_t tri0d = ps.tri0[d];
      const index_t below0d = tri0d + wd;
      const index_t nj = e.je - e.jb;
      const index_t ni = nrd - below0d;

      s.jloc.resize(nj);
      for (index_t q = 0; q < nj; ++q) s.jloc[q] = drows[e.jb + q] - c0;

      // U-part: Y = L_dd⁻¹ · (target rows at d's columns).
      s.pos.resize(wd);
      for (index_t k = 0; k < wd; ++k) s.pos[k] = s.rowpos[d0 + k];
      s.y.resize(static_cast<std::size_t>(wd) * nj);
      panel::gather_block(pan, nr, s.pos.data(), wd, s.jloc.data(), nj, true,
                          s.y.data());
      panel::trsm_unit_lower(dpan, nrd, tri0d, wd, s.y.data(), nj);
      panel::scatter_block(s.y.data(), wd, nj, true, s.pos.data(),
                           s.jloc.data(), pan, nr);

      // Below block: C -= L_d(below, :) · Y.
      s.pos.resize(std::max(ni, wd));
      for (index_t i = 0; i < ni; ++i) s.pos[i] = s.rowpos[drows[below0d + i]];
      s.c.resize(static_cast<std::size_t>(ni) * nj);
      panel::gather_block(pan, nr, s.pos.data(), ni, s.jloc.data(), nj, false,
                          s.c.data());
      panel::gemm_minus(dpan + below0d, nrd, ni, wd, s.y.data(), nj,
                        s.c.data(), ni);
      panel::scatter_block(s.c.data(), ni, nj, false, s.pos.data(),
                           s.jloc.data(), pan, nr);

      s.gemm_flops += static_cast<long long>(ni) * nj * wd;
      s.other_flops += static_cast<long long>(nj) * wd * (wd - 1) / 2;
    }

    // In-panel dense factorization. Only the tail exchanges rows. A
    // non-finite value aborts too — padding products like 0·inf would make
    // NaNs the scalar kernel never forms.
    const bool tail = c0 == ps.tail;
    const bool ok =
        factor_panel(pan, nr, ps.tri0[p], wp, tail ? opt.panel_max_width : wp,
                     opt, tail ? tail_perm.data() : nullptr, s) &&
        std::all_of(pan, pan + static_cast<std::size_t>(nr) * wp,
                    [](value_t v) { return std::isfinite(v); });
    if (!ok) abort.store(true, std::memory_order_relaxed);

    for (index_t i = 0; i < nr; ++i) s.rowpos[prows[i]] = -1;
  };

  if (nw <= 1) {
    for (index_t p = 0; p < np && !abort.load(std::memory_order_relaxed); ++p) {
      body(0, p);
    }
  } else {
    run_tree_pipeline(ThreadPool::shared(), ps.sn_parent, nw, body);
  }

  for (const auto& w : ws) {
    stats.gemm_flops += w.gemm_flops;
    stats.total_flops += w.gemm_flops + w.other_flops;
  }
  return !abort.load(std::memory_order_relaxed);
}

/// Extract clean factors from the packed panels: L by columns, U by rows
/// (direct/lu.hpp). Pivots before the tail kept their diagonal, and every
/// tail row sits at its pivot position, so panel rows are pivot positions —
/// except the tail rows of earlier L columns, which carry original rows and
/// are relabeled through the tail's exchanges (then re-sorted). Exact zeros
/// (structural padding and numerically cancelled entries) are dropped,
/// exactly as the scalar kernel's scatter drops them.
LuFactors panel_extract(const PanelSymbolic& ps,
                        const std::vector<value_t>& arena,
                        const std::vector<index_t>& tail_perm, bool relabel,
                        index_t n) {
  LuFactors f;
  f.n = n;
  f.row_perm.resize(n);
  for (index_t r = 0; r < n; ++r) {
    f.row_perm[r] = r < ps.tail ? r : ps.tail + tail_perm[r - ps.tail];
  }
  std::vector<index_t> pinv;
  if (relabel) {
    pinv.resize(n);
    for (index_t k = 0; k < n; ++k) pinv[f.row_perm[k]] = k;
  }
  std::vector<std::pair<index_t, value_t>> buf;

  // Visit every factor column in ascending order: f(j, col, dpos, nr, prows).
  const auto for_each_column = [&](auto&& fn) {
    for (index_t p = 0; p < ps.sn.count(); ++p) {
      const index_t c0 = ps.sn.start[p], c1 = ps.sn.start[p + 1];
      const index_t* prows = ps.rows.data() + ps.row_ptr[p];
      const index_t nr =
          static_cast<index_t>(ps.row_ptr[p + 1] - ps.row_ptr[p]);
      const value_t* pan = arena.data() + ps.arena_off[p];
      for (index_t j = c0; j < c1; ++j) {
        fn(j, pan + static_cast<std::size_t>(j - c0) * nr,
           ps.tri0[p] + (j - c0), nr, prows);
      }
    }
  };

  CscMatrix& L = f.lower;
  CscMatrix& Ut = f.upper_t;
  L = CscMatrix(n, n);
  Ut = CscMatrix(n, n);
  L.row_idx.reserve(ps.l_nnz_bound);
  L.values.reserve(ps.l_nnz_bound);

  // U by rows: count each row's entries first. Row j of U has no entry left
  // of column j, so filling in ascending column order puts each row's
  // diagonal first and the rest in ascending column order.
  for_each_column([&](index_t j, const value_t* col, index_t dpos, index_t,
                      const index_t* prows) {
    ++Ut.col_ptr[j + 1];
    for (index_t i = 0; i < dpos; ++i) {
      if (col[i] != 0.0) ++Ut.col_ptr[prows[i] + 1];
    }
  });
  for (index_t i = 0; i < n; ++i) Ut.col_ptr[i + 1] += Ut.col_ptr[i];
  Ut.row_idx.resize(Ut.col_ptr[n]);
  Ut.values.resize(Ut.col_ptr[n]);
  std::vector<index_t> next(Ut.col_ptr.begin(), Ut.col_ptr.end() - 1);

  for_each_column([&](index_t j, const value_t* col, index_t dpos, index_t nr,
                      const index_t* prows) {
    const index_t d = next[j]++;
    Ut.row_idx[d] = j;
    Ut.values[d] = col[dpos];
    for (index_t i = 0; i < dpos; ++i) {
      const value_t v = col[i];
      if (v != 0.0) {
        const index_t slot = next[prows[i]]++;
        Ut.row_idx[slot] = j;
        Ut.values[slot] = v;
      }
    }

    L.row_idx.push_back(j);  // unit diagonal first
    L.values.push_back(1.0);
    const std::size_t first = L.row_idx.size();
    for (index_t i = dpos + 1; i < nr; ++i) {
      const value_t v = col[i];
      if (v != 0.0) {
        L.row_idx.push_back(prows[i]);
        L.values.push_back(v);
      }
    }
    if (relabel && j < ps.tail) {
      const auto tail0 = std::lower_bound(
          L.row_idx.begin() + static_cast<std::ptrdiff_t>(first),
          L.row_idx.end(), ps.tail);
      const std::size_t q0 =
          static_cast<std::size_t>(tail0 - L.row_idx.begin());
      buf.clear();
      for (std::size_t q = q0; q < L.row_idx.size(); ++q) {
        buf.emplace_back(pinv[L.row_idx[q]], L.values[q]);
      }
      std::sort(buf.begin(), buf.end());
      for (std::size_t q = q0; q < L.row_idx.size(); ++q) {
        std::tie(L.row_idx[q], L.values[q]) = buf[q - q0];
      }
    }
    L.col_ptr[j + 1] = static_cast<index_t>(L.row_idx.size());
  });
  return f;
}

}  // namespace

std::optional<LuFactors> panel_lu_factorize(const CscMatrix& a,
                                            const LuOptions& opt) {
  PDSLIN_CHECK_MSG(a.rows == a.cols, "LU requires a square matrix");
  const PanelSymbolic ps = panel_symbolic(a, opt);
  LuPanelStats stats;
  std::vector<value_t> arena;
  std::vector<index_t> tail_perm;
  if (!panel_numeric(a, opt, ps, arena, tail_perm, stats)) {
    return std::nullopt;
  }

  stats.tail_cols = a.rows - ps.tail;
  for (index_t i = 0; i < stats.tail_cols; ++i) {
    if (tail_perm[i] != i) ++stats.tail_pivots;
  }
  LuFactors f = panel_extract(ps, arena, tail_perm, stats.tail_pivots > 0,
                              a.rows);
  // Reported panels: the tail in the blocks it was factored in.
  const Supernodes panels = cut_at_tail(ps.sn, ps.tail, opt.panel_max_width);
  stats.used_panel = true;
  stats.panel_count = panels.count();
  stats.avg_width = panels.average_width();
  stats.max_width = panels.max_width();
  stats.wide_col_fraction = panels.wide_column_fraction(4);
  stats.panel_bytes = static_cast<long long>(ps.arena_cells) *
                      static_cast<long long>(sizeof(value_t));
  f.stats = stats;

  obs::counter("lu.panel.factorizations").add(1);
  obs::counter("lu.panel.panels_total").add(stats.panel_count);
  obs::counter("lu.panel.cols_total").add(f.n);
  obs::counter("lu.panel.tail_cols").add(stats.tail_cols);
  obs::counter("lu.panel.tail_pivots").add(stats.tail_pivots);
  obs::counter("lu.panel.gemm_flops").add(stats.gemm_flops);
  obs::counter("lu.panel.total_flops").add(stats.total_flops);
  obs::gauge("lu.panel.count").set(static_cast<double>(stats.panel_count));
  obs::gauge("lu.panel.avg_width").set(stats.avg_width);
  obs::gauge("lu.panel.max_width").set(static_cast<double>(stats.max_width));
  obs::gauge("lu.panel.wide_col_fraction").set(stats.wide_col_fraction);
  obs::gauge("lu.panel.gemm_fraction")
      .set(stats.total_flops > 0
               ? static_cast<double>(stats.gemm_flops) /
                     static_cast<double>(stats.total_flops)
               : 0.0);
  return f;
}

}  // namespace pdslin
