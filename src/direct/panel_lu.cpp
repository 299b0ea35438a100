#include "direct/panel_lu.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>
#include <utility>

#include "direct/kernels.hpp"
#include "direct/supernodes.hpp"
#include "direct/symbolic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sparse/convert.hpp"
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
  Supernodes sn;                      // the panels; the last is the dense region
  index_t tail = 0;                   // first column of the dense region
  std::vector<index_t> rows;          // concatenated sorted row lists
  std::vector<std::size_t> row_ptr;   // per-panel slice of `rows`
  std::vector<index_t> tri0;          // local row of the first panel column
  std::vector<std::size_t> arena_off; // packed-panel offsets (cells)
  std::size_t arena_cells = 0;
  std::vector<std::vector<UpdateEdge>> upd;  // per target, ascending src
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

PanelSymbolic panel_symbolic(const PatternAnalysis& an, index_t max_width,
                             double relax) {
  PDSLIN_SPAN("lu.panel.symbolic");
  const CsrMatrix& sym = an.pattern;
  const SymbolicFactor& sf = an.symbolic;
  const index_t n = sym.rows;

  // The dense region: from the first column at which dense storage of the
  // trailing block is no larger than the CSC storage of its symbolic
  // columns (L's column and U's row, each col_counts[j] entries). It holds
  // every row [tail, n) of its columns, so row exchanges among them change
  // no structure; it is factored as one panel with row pivoting.
  PanelSymbolic ps;
  {
    std::vector<index_t> entries(sf.col_counts.size());
    for (std::size_t j = 0; j < entries.size(); ++j) {
      entries[j] = 2 * sf.col_counts[j];
    }
    ps.tail = dense_region_start(entries);
  }
  ps.sn = cut_at_tail(relaxed_supernodes(sf.parent, sf.col_counts, max_width,
                                         std::max(0.0, relax)),
                      ps.tail, 0);
  const index_t np = ps.sn.count();

  // L's pattern is needed only before the dense region, which stores
  // every row of its columns.
  const CscMatrix lpat = cholesky_pattern(sym, sf, ps.tail);  // diag-first
  const CscMatrix upat = transpose(lpat);  // col j: row j of L before tail

  ps.row_ptr.assign(np + 1, 0);
  ps.tri0.resize(np);
  ps.arena_off.resize(np);

  // Per-panel row list: union of the full symbolic column patterns (U rows
  // above the panel, the triangle — always complete, every member column
  // contributes its diagonal — and the shared below-diagonal rows); the
  // dense region's rows above it, then all of its own.
  std::vector<index_t> mark(n, -1);
  std::vector<index_t> local;
  for (index_t p = 0; p < np; ++p) {
    const index_t c0 = ps.sn.start[p], c1 = ps.sn.start[p + 1];
    local.clear();
    for (index_t j = c0; j < c1; ++j) {
      for (index_t r : upat.col_rows(j)) {
        if (mark[r] != p) { mark[r] = p; local.push_back(r); }
      }
      if (j >= ps.tail) continue;
      for (index_t r : lpat.col_rows(j)) {
        if (mark[r] != p) { mark[r] = p; local.push_back(r); }
      }
    }
    if (c0 == ps.tail) {
      for (index_t r = c0; r < n; ++r) local.push_back(r);
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

/// Scratch: the global→local row map for the panel being built plus
/// reusable gather buffers.
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
/// scalar kernel's bit for bit. A panel before the dense region is one
/// block with pivots confined to the diagonal (perm == nullptr); the region
/// passes the width cap and its row order, and exchanges rows.
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
                   const PanelSymbolic& ps, index_t max_width,
                   std::vector<value_t>& arena,
                   std::vector<index_t>& tail_perm, LuPanelStats& stats) {
  PDSLIN_SPAN("lu.panel.numeric");
  const index_t n = a.rows;
  const index_t np = ps.sn.count();
  arena.assign(ps.arena_cells, 0.0);

  Workspace s;
  s.rowpos.assign(n, -1);
  tail_perm.resize(n - ps.tail);
  std::iota(tail_perm.begin(), tail_perm.end(), index_t{0});

  // Panels in ascending order: every panel's updaters precede it.
  for (index_t p = 0; p < np; ++p) {
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

    // In-panel dense factorization. Only the dense region exchanges rows. A
    // non-finite value aborts too — padding products like 0·inf would make
    // NaNs the scalar kernel never forms.
    const bool tail = c0 == ps.tail;
    const bool ok =
        factor_panel(pan, nr, ps.tri0[p], wp, tail ? max_width : wp,
                     opt, tail ? tail_perm.data() : nullptr, s) &&
        std::all_of(pan, pan + static_cast<std::size_t>(nr) * wp,
                    [](value_t v) { return std::isfinite(v); });
    if (!ok) return false;

    for (index_t i = 0; i < nr; ++i) s.rowpos[prows[i]] = -1;
  }

  stats.gemm_flops += s.gemm_flops;
  stats.total_flops += s.gemm_flops + s.other_flops;
  return true;
}

/// Extract clean factors from the packed panels: L by columns, U by rows
/// (direct/lu.hpp). Pivots before the dense region kept their diagonal,
/// and every row of the region sits at its pivot position, so panel rows
/// are pivot positions — except the region's rows of earlier L columns,
/// which carry original rows and are relabeled through its exchanges (then
/// re-sorted). Exact zeros (structural padding and numerically cancelled
/// entries) are dropped from the CSC columns, exactly as the scalar
/// kernel's scatter drops them.
///
/// A count pass gives each L column's and U row's entries. With `block`
/// set, dense_region_start on them places the dense block, as
/// dense_block_start does on CSC factors; without it, or when no column
/// qualifies, the block starts at n. The write pass copies the block's
/// columns out of the arena, a zero of either sign as +0.0, and writes L's
/// columns and U's rows before it as CSC. When the block and the dense
/// region both start at column 0, the arena is the block.
BlockLuFactors panel_extract(const PanelSymbolic& ps,
                             std::vector<value_t>& arena,
                             const std::vector<index_t>& tail_perm,
                             bool relabel, index_t n, bool block) {
  BlockLuFactors f;
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
  // The pivot position of local row i of column j's panel.
  const auto row_of = [&](index_t j, const index_t* prows, index_t i) {
    const index_t r = prows[i];
    return relabel && j < ps.tail && r >= ps.tail ? pinv[r] : r;
  };

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

  // Count pass: L's columns (unit diagonal included) and U's rows. The
  // dense region's own rows sit at consecutive local rows from tri0, so
  // its U part above the diagonal is counted as one run.
  std::vector<index_t> l_count(n), u_count(n, 0);
  for_each_column([&](index_t j, const value_t* col, index_t dpos, index_t nr,
                      const index_t* prows) {
    ++u_count[j];
    const index_t run = j >= ps.tail ? dpos - (j - ps.tail) : dpos;
    for (index_t i = 0; i < run; ++i) {
      if (col[i] != 0.0) ++u_count[prows[i]];
    }
    index_t* uc = u_count.data() + ps.tail;  // uc[i − run]: local row i
    for (index_t i = run; i < dpos; ++i) uc[i - run] += col[i] != 0.0;
    index_t below = 0;
    for (index_t i = dpos + 1; i < nr; ++i) below += col[i] != 0.0;
    l_count[j] = 1 + below;
  });
  std::vector<index_t> entries(n);
  for (index_t j = 0; j < n; ++j) {
    entries[j] = l_count[j] + u_count[j];
    f.stored_nnz += entries[j];
  }
  const index_t b = block ? dense_region_start(entries) : n;
  const index_t nb = n - b;
  f.start = b;

  // The CSC head: L's columns and U's rows before b, over all n positions.
  CscMatrix& L = f.lower_head;
  CscMatrix& Ut = f.upper_t_head;
  L = CscMatrix(n, b);
  Ut = CscMatrix(n, b);
  for (index_t j = 0; j < b; ++j) {
    L.col_ptr[j + 1] = L.col_ptr[j] + l_count[j];
    Ut.col_ptr[j + 1] = Ut.col_ptr[j] + u_count[j];
  }
  L.row_idx.resize(L.col_ptr[b]);
  L.values.resize(L.col_ptr[b]);
  Ut.row_idx.resize(Ut.col_ptr[b]);
  Ut.values.resize(Ut.col_ptr[b]);
  std::vector<index_t> next(Ut.col_ptr.begin(), Ut.col_ptr.end() - 1);
  // A U entry of row r < b; row r's entries arrive in ascending column
  // order, its diagonal first (row r has no entry left of column r).
  const auto put_u = [&](index_t r, index_t j, value_t v) {
    const index_t slot = next[r]++;
    Ut.row_idx[slot] = j;
    Ut.values[slot] = v;
  };

  if (b == 0 && ps.tail == 0) {
    // One panel, the dense region, with no rows above it: nr = n.
    for (value_t& v : arena) v = v != 0.0 ? v : 0.0;
    f.block = std::move(arena);
    return f;
  }
  f.block.assign(static_cast<std::size_t>(nb) * static_cast<std::size_t>(nb),
                 0.0);
  std::vector<std::pair<index_t, value_t>> buf;
  for_each_column([&](index_t j, const value_t* col, index_t dpos, index_t nr,
                      const index_t* prows) {
    if (j < b) {
      put_u(j, j, col[dpos]);
      for (index_t i = 0; i < dpos; ++i) {
        if (col[i] != 0.0) put_u(prows[i], j, col[i]);
      }
      index_t q = L.col_ptr[j];
      L.row_idx[q] = j;  // unit diagonal first
      L.values[q] = 1.0;
      ++q;
      for (index_t i = dpos + 1; i < nr; ++i) {
        if (col[i] != 0.0) {
          L.row_idx[q] = prows[i];
          L.values[q] = col[i];
          ++q;
        }
      }
      if (relabel && j < ps.tail) {
        const auto first = L.row_idx.begin() + L.col_ptr[j] + 1;
        const auto last = L.row_idx.begin() + L.col_ptr[j + 1];
        const auto q0 = std::lower_bound(first, last, ps.tail) -
                        L.row_idx.begin();
        buf.clear();
        for (index_t k = static_cast<index_t>(q0); k < L.col_ptr[j + 1]; ++k) {
          buf.emplace_back(pinv[L.row_idx[k]], L.values[k]);
        }
        std::sort(buf.begin(), buf.end());
        for (index_t k = static_cast<index_t>(q0); k < L.col_ptr[j + 1]; ++k) {
          std::tie(L.row_idx[k], L.values[k]) = buf[k - q0];
        }
      }
      return;
    }
    // Column j of the block: bc[r − b] is block entry (r, j).
    value_t* bc = f.block.data() + static_cast<std::size_t>(j - b) * nb;
    if (j >= ps.tail) {
      // The dense region's rows [tail, n) sit at local rows tri0 + (r −
      // tail): copy rows [max(b, tail), n) in one run.
      const index_t tri0 = dpos - (j - ps.tail);
      const index_t r0 = std::max(b, ps.tail);
      const value_t* src = col + tri0 + (r0 - ps.tail);
      for (index_t r = r0; r < n; ++r) {
        const value_t v = src[r - r0];
        bc[r - b] = v != 0.0 ? v : 0.0;
      }
      nr = tri0 + (r0 - ps.tail);
    }
    for (index_t i = 0; i < nr; ++i) {
      if (i == dpos) {
        bc[j - b] = col[dpos];
        continue;
      }
      const value_t v = col[i];
      const index_t r = i < dpos ? prows[i] : row_of(j, prows, i);
      if (r >= b) {
        bc[r - b] = v != 0.0 ? v : 0.0;
      } else if (v != 0.0) {
        put_u(r, j, v);
      }
    }
  });
  return f;
}

/// Symbolic and numeric phases, then the extraction; nullopt when the
/// numeric phase aborts.
std::optional<BlockLuFactors> attempt(const CscMatrix& a,
                                      const PatternAnalysis& an,
                                      const LuOptions& opt, index_t max_width,
                                      double relax, bool block,
                                      LuPanelStats& stats) {
  PDSLIN_CHECK_MSG(a.rows == a.cols, "LU requires a square matrix");
  PDSLIN_CHECK_MSG(an.pattern.rows == a.rows &&
                       an.symbolic.parent.size() ==
                           static_cast<std::size_t>(a.rows),
                   "the pattern analysis is of another matrix");
  const PanelSymbolic ps = panel_symbolic(an, max_width, relax);
  std::vector<value_t> arena;
  std::vector<index_t> tail_perm;
  if (!panel_numeric(a, opt, ps, max_width, arena, tail_perm, stats)) {
    return std::nullopt;
  }

  stats.tail_cols = a.rows - ps.tail;
  for (index_t i = 0; i < stats.tail_cols; ++i) {
    if (tail_perm[i] != i) ++stats.tail_pivots;
  }
  // Reported panels: the dense region in the blocks it was factored in.
  const Supernodes panels = cut_at_tail(ps.sn, ps.tail, max_width);
  stats.used_panel = true;
  stats.panel_count = panels.count();
  stats.avg_width = panels.average_width();
  stats.max_width = panels.max_width();
  stats.wide_col_fraction = panels.wide_column_fraction(4);
  stats.panel_bytes = static_cast<long long>(ps.arena_cells) *
                      static_cast<long long>(sizeof(value_t));

  obs::counter("lu.panel.factorizations").add(1);
  obs::counter("lu.panel.panels_total").add(stats.panel_count);
  obs::counter("lu.panel.cols_total").add(a.rows);
  obs::counter("lu.panel.tail_cols").add(stats.tail_cols);
  obs::counter("lu.panel.tail_pivots").add(stats.tail_pivots);
  obs::counter("lu.panel.gemm_flops").add(stats.gemm_flops);
  obs::counter("lu.panel.total_flops").add(stats.total_flops);
  PDSLIN_SPAN("lu.panel.extract");
  return panel_extract(ps, arena, tail_perm, stats.tail_pivots > 0, a.rows,
                       block);
}

}  // namespace

std::optional<LuFactors> panel_lu_factorize(const CscMatrix& a,
                                            const PatternAnalysis& an,
                                            const LuOptions& opt,
                                            index_t max_width, double relax) {
  LuPanelStats stats;
  std::optional<BlockLuFactors> b =
      attempt(a, an, opt, max_width, relax, /*block=*/false, stats);
  if (!b) return std::nullopt;
  LuFactors f;
  f.n = b->n;
  f.lower = std::move(b->lower_head);
  f.upper_t = std::move(b->upper_t_head);
  f.row_perm = std::move(b->row_perm);
  f.stats = stats;
  return f;
}

std::optional<BlockLuFactors> panel_lu_factorize_block(
    const CscMatrix& a, const PatternAnalysis& an, const LuOptions& opt) {
  LuPanelStats stats;
  return attempt(a, an, opt, kPanelMaxWidth, kPanelRelax, /*block=*/true,
                 stats);
}

}  // namespace pdslin
