#include "direct/lu.hpp"

#include <algorithm>
#include <cmath>

#include "direct/panel_lu.hpp"
#include "obs/metrics.hpp"
#include "sparse/convert.hpp"
#include "sparse/permute.hpp"
#include "util/error.hpp"

namespace pdslin {

namespace {

// Depth-first search on the partially built L for the Gilbert–Peierls solve.
// Nodes are original row indices; a node r has outgoing edges iff it has been
// pivoted (pinv[r] >= 0), in which case its edges are the off-diagonal rows
// of L's column pinv[r]. Emits the reach in reverse-topological order into
// `out` (so iterating `out` forward gives a valid elimination order).
class GpDfs {
 public:
  explicit GpDfs(index_t n) : visited_(n, 0), stack_(n), pstack_(n) {}

  void reset() { ++stamp_; out_.clear(); }

  void run(index_t seed, const std::vector<index_t>& pinv,
           const std::vector<std::vector<index_t>>& l_rows) {
    if (visited_[seed] == stamp_) return;
    index_t depth = 0;
    stack_[0] = seed;
    pstack_[0] = 0;
    visited_[seed] = stamp_;
    while (depth >= 0) {
      const index_t r = stack_[depth];
      const index_t col = pinv[r];
      bool descended = false;
      if (col >= 0) {
        const auto& rows = l_rows[col];
        for (index_t& p = pstack_[depth]; p < static_cast<index_t>(rows.size());) {
          const index_t child = rows[p++];
          if (visited_[child] != stamp_) {
            visited_[child] = stamp_;
            ++depth;
            stack_[depth] = child;
            pstack_[depth] = 0;
            descended = true;
            break;
          }
        }
      }
      if (!descended) {
        post_.push_back(r);
        --depth;
      }
    }
    // Reverse postorder = topological order; prepend to out_ (we instead
    // append and reverse once per column in finish()).
  }

  std::vector<index_t>& finish() {
    out_.assign(post_.rbegin(), post_.rend());
    post_.clear();
    return out_;
  }

 private:
  std::vector<index_t> visited_;
  index_t stamp_ = 0;
  std::vector<index_t> stack_;
  std::vector<index_t> pstack_;
  std::vector<index_t> post_;
  std::vector<index_t> out_;
};

void check_lu_input(const CscMatrix& a) {
  PDSLIN_CHECK_MSG(a.rows == a.cols, "LU requires a square matrix");
  // An all-zero (or 0×0) matrix carries no values array; it is either the
  // trivial empty factorization (n == 0) or structurally singular, which the
  // pivot check reports as such — don't reject it as pattern-only.
  PDSLIN_CHECK_MSG(a.has_values() || a.row_idx.empty(),
                   "LU requires numeric values");
}

}  // namespace

// The scalar Gilbert–Peierls kernel — also the fallback that defines the
// exact result (and error behavior) the panel kernel must reproduce.
LuFactors scalar_lu_factorize(const CscMatrix& a, const LuOptions& opt) {
  check_lu_input(a);
  const index_t n = a.rows;

  // Factor columns held with ORIGINAL row indices during factorization;
  // converted to pivot indices at the end.
  std::vector<std::vector<index_t>> l_rows(n);  // off-diagonal original rows
  std::vector<std::vector<value_t>> l_vals(n);
  std::vector<index_t> l_pivot_row(n);          // original row of the pivot
  std::vector<std::vector<index_t>> u_rows(n);  // pivot positions (< j)
  std::vector<std::vector<value_t>> u_vals(n);
  std::vector<value_t> u_diag(n);

  std::vector<index_t> pinv(n, -1);  // original row → pivot position
  std::vector<value_t> x(n, 0.0);
  GpDfs dfs(n);

  for (index_t j = 0; j < n; ++j) {
    // --- Symbolic: reach of A(:, j) through the current L. ---
    dfs.reset();
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      dfs.run(a.row_idx[p], pinv, l_rows);
    }
    std::vector<index_t>& topo = dfs.finish();
    // Canonical ascending-pivot update order. Any topological order is a
    // valid left-looking schedule; fixing the one the panel kernel uses
    // makes the two kernels' per-element operation sequences — and hence
    // the factors — bitwise identical. Unpivoted rows are pure sinks and
    // sort after, by row (which also fixes the pivot-scan tie-break).
    std::sort(topo.begin(), topo.end(), [&](index_t ra, index_t rb) {
      const index_t ka = pinv[ra], kb = pinv[rb];
      if ((ka >= 0) != (kb >= 0)) return ka >= 0;
      return (ka >= 0 ? ka : ra) < (kb >= 0 ? kb : rb);
    });

    // --- Numeric: x = L⁻¹ A(:, j) on the reach pattern. ---
    for (index_t r : topo) x[r] = 0.0;
    for (index_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      x[a.row_idx[p]] = a.values[p];
    }
    for (index_t r : topo) {
      const index_t col = pinv[r];
      if (col < 0) continue;
      const value_t xr = x[r];
      if (xr == 0.0) continue;
      const auto& rows = l_rows[col];
      const auto& vals = l_vals[col];
      for (std::size_t k = 0; k < rows.size(); ++k) {
        x[rows[k]] -= vals[k] * xr;
      }
    }

    // --- Pivot selection among not-yet-pivoted rows. ---
    index_t pivot = -1;
    value_t pivot_abs = 0.0;
    value_t diag_val = 0.0;
    bool diag_present = false;
    for (index_t r : topo) {
      if (pinv[r] >= 0) continue;
      const value_t av = std::abs(x[r]);
      if (av > pivot_abs) {
        pivot_abs = av;
        pivot = r;
      }
      if (r == j) {
        diag_present = true;
        diag_val = std::abs(x[r]);
      }
    }
    PDSLIN_CHECK_MSG(pivot >= 0 && pivot_abs > opt.min_pivot,
                     "matrix is singular at column " + std::to_string(j));
    if (diag_present && diag_val >= opt.pivot_tol * pivot_abs &&
        diag_val > opt.min_pivot) {
      pivot = j;  // threshold pivoting keeps the diagonal when acceptable
    }
    const value_t pv = x[pivot];
    pinv[pivot] = j;
    l_pivot_row[j] = pivot;
    u_diag[j] = pv;

    // --- Scatter into L (below) and U (above). ---
    for (index_t r : topo) {
      if (r == pivot) continue;
      const value_t xr = x[r];
      x[r] = 0.0;
      if (pinv[r] >= 0) {
        if (xr != 0.0) {
          u_rows[j].push_back(pinv[r]);
          u_vals[j].push_back(xr);
        }
      } else if (xr != 0.0) {
        l_rows[j].push_back(r);
        l_vals[j].push_back(xr / pv);
      }
    }
    x[pivot] = 0.0;
  }

  // --- Assemble clean factors with pivot-position row indices. ---
  LuFactors f;
  f.n = n;
  f.row_perm.resize(n);
  for (index_t r = 0; r < n; ++r) f.row_perm[pinv[r]] = r;

  CscMatrix& L = f.lower;
  L = CscMatrix(n, n);
  {
    long long nnz = n;
    for (index_t j = 0; j < n; ++j) nnz += static_cast<long long>(l_rows[j].size());
    L.row_idx.reserve(nnz);
    L.values.reserve(nnz);
    std::vector<std::pair<index_t, value_t>> buf;
    for (index_t j = 0; j < n; ++j) {
      buf.clear();
      for (std::size_t k = 0; k < l_rows[j].size(); ++k) {
        buf.emplace_back(pinv[l_rows[j][k]], l_vals[j][k]);
      }
      std::sort(buf.begin(), buf.end());
      L.row_idx.push_back(j);  // unit diagonal first
      L.values.push_back(1.0);
      for (const auto& [r, v] : buf) {
        L.row_idx.push_back(r);
        L.values.push_back(v);
      }
      L.col_ptr[j + 1] = static_cast<index_t>(L.row_idx.size());
    }
  }

  // U by rows: column i of Uᵀ is row i of U. Row j of U has no entry left
  // of column j, so visiting U's columns in ascending order puts each row's
  // diagonal first and the rest in ascending column order.
  CscMatrix& Ut = f.upper_t;
  Ut = CscMatrix(n, n);
  for (index_t j = 0; j < n; ++j) {
    ++Ut.col_ptr[j + 1];
    for (index_t r : u_rows[j]) ++Ut.col_ptr[r + 1];
  }
  for (index_t i = 0; i < n; ++i) Ut.col_ptr[i + 1] += Ut.col_ptr[i];
  Ut.row_idx.resize(Ut.col_ptr[n]);
  Ut.values.resize(Ut.col_ptr[n]);
  {
    std::vector<index_t> next(Ut.col_ptr.begin(), Ut.col_ptr.end() - 1);
    for (index_t j = 0; j < n; ++j) {
      const index_t d = next[j]++;
      Ut.row_idx[d] = j;
      Ut.values[d] = u_diag[j];
      for (std::size_t k = 0; k < u_rows[j].size(); ++k) {
        const index_t slot = next[u_rows[j][k]]++;
        Ut.row_idx[slot] = j;
        Ut.values[slot] = u_vals[j][k];
      }
    }
  }
  return f;
}

namespace {

/// `a` in factor order, `an` its analysis.
LuFactors factorize_analyzed(const CscMatrix& a, const PatternAnalysis& an,
                             const LuOptions& opt) {
  check_lu_input(a);
  if (auto f = panel_lu_factorize(a, an, opt)) return std::move(*f);
  // Threshold pivoting left the diagonal before the dense region, or a
  // guard tripped (singular column, zero multiplier, non-finite value):
  // refactorize with the scalar kernel, which produces the identical result
  // — including the identical singularity error — that the panel path
  // could not.
  obs::counter("lu.panel.fallbacks").add(1);
  return scalar_lu_factorize(a, opt);
}

std::size_t csc_bytes(const CscMatrix& m) {
  return (m.col_ptr.size() + m.row_idx.size()) * sizeof(index_t) +
         m.values.size() * sizeof(value_t);
}

// The first `cols` columns of m, as an m.rows × cols CSC; m is consumed.
CscMatrix leading_columns(CscMatrix m, index_t cols) {
  const auto nnz = static_cast<std::size_t>(m.col_ptr[cols]);
  m.cols = cols;
  m.col_ptr.resize(static_cast<std::size_t>(cols) + 1);
  m.row_idx.resize(nnz);
  m.values.resize(nnz);
  m.col_ptr.shrink_to_fit();
  m.row_idx.shrink_to_fit();
  m.values.shrink_to_fit();
  return m;
}

}  // namespace

LuFactors lu_factorize(const CscMatrix& a, const LuOptions& opt) {
  check_lu_input(a);
  // The pattern of Aᵀ, the CSC arrays read as CSR: |Aᵀ| + |A| = |A| + |Aᵀ|.
  CsrMatrix at;
  at.rows = a.cols;
  at.cols = a.rows;
  at.row_ptr = a.col_ptr;
  at.col_idx = a.row_idx;
  return factorize_analyzed(a, analyze_pattern(at, FillOrdering::Given), opt);
}

LuFactors lu_factorize(const CsrMatrix& a, const LuOptions& opt) {
  return lu_factorize(csr_to_csc(a), opt);
}

LuFactors lu_factorize(const CsrMatrix& a, const PatternAnalysis& an,
                       const LuOptions& opt) {
  return factorize_analyzed(permuted_csc(a, an.colmap, an.colmap), an, opt);
}

BlockLuFactors block_lu_factorize(const CsrMatrix& a, const PatternAnalysis& an,
                                  const LuOptions& opt) {
  const CscMatrix ac = permuted_csc(a, an.colmap, an.colmap);
  check_lu_input(ac);
  if (auto f = panel_lu_factorize_block(ac, an, opt)) return std::move(*f);
  obs::counter("lu.panel.fallbacks").add(1);
  LuFactors f = scalar_lu_factorize(ac, opt);
  const index_t start = dense_block_start(f);
  return with_dense_block(std::move(f), start);
}

std::size_t BlockLuFactors::memory_bytes() const {
  return csc_bytes(lower_head) + csc_bytes(upper_t_head) +
         block.size() * sizeof(value_t) + row_perm.size() * sizeof(index_t);
}

index_t dense_region_start(std::span<const index_t> entries) {
  const auto n = static_cast<index_t>(entries.size());
  // CSC bytes from c on, for c = n − 1 down to 0; the smallest c whose
  // dense block is no larger wins.
  long long csc = 0;
  index_t start = n;
  for (index_t c = n - 1; c >= 0; --c) {
    csc += 12LL * entries[c] + 8;
    const long long nb = n - c;
    if (8 * nb * nb <= csc) start = c;
  }
  return start;
}

index_t dense_block_start(const LuFactors& f) {
  const index_t n = f.n;
  std::vector<index_t> entries(static_cast<std::size_t>(n));
  for (index_t c = 0; c < n; ++c) {
    entries[c] = f.lower.col_nnz(c) + f.upper_t.col_nnz(c);
  }
  const index_t start = dense_region_start(entries);
  for (index_t j = start; j < n; ++j) {
    for (const value_t v : f.lower.col_vals(j)) {
      if (v == 0.0) return n;
    }
    for (const value_t v : f.upper_t.col_vals(j)) {
      if (v == 0.0) return n;
    }
  }
  return start;
}

BlockLuFactors with_dense_block(LuFactors f, index_t start) {
  PDSLIN_CHECK(start >= 0 && start <= f.n);
  BlockLuFactors b;
  b.n = f.n;
  b.start = start;
  b.stored_nnz = f.fill_nnz();
  const index_t nb = f.n - start;
  b.block.assign(static_cast<std::size_t>(nb) * static_cast<std::size_t>(nb),
                 0.0);
  const auto at = [&](index_t r, index_t c) -> value_t& {
    return b.block[static_cast<std::size_t>(c - start) * nb + (r - start)];
  };
  for (index_t j = start; j < f.n; ++j) {
    // L's unit diagonal leads column j and is implied; U's diagonal leads
    // row j and takes its place.
    for (index_t p = f.lower.col_ptr[j] + 1; p < f.lower.col_ptr[j + 1]; ++p) {
      PDSLIN_CHECK_MSG(f.lower.values[p] != 0.0, "stored zero in a dense block");
      at(f.lower.row_idx[p], j) = f.lower.values[p];
    }
    for (index_t p = f.upper_t.col_ptr[j]; p < f.upper_t.col_ptr[j + 1]; ++p) {
      PDSLIN_CHECK_MSG(f.upper_t.values[p] != 0.0,
                       "stored zero in a dense block");
      at(j, f.upper_t.row_idx[p]) = f.upper_t.values[p];
    }
  }
  b.lower_head = leading_columns(std::move(f.lower), start);
  b.upper_t_head = leading_columns(std::move(f.upper_t), start);
  b.row_perm = std::move(f.row_perm);
  return b;
}

}  // namespace pdslin
