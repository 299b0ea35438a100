// Supernode detection for the panel LU kernel (direct/panel_lu.cpp).
//
// PDSLin's triangular solver is supernodal: consecutive factor columns with
// identical below-diagonal structure are treated as one dense panel. The
// paper's B-column RHS blocking (§IV) is the right-hand-side analogue of
// this. This module amalgamates columns into panels from the elimination
// tree and the factor column counts (relaxed_supernodes; relax 0 gives the
// fundamental supernodes), and reports the panel statistics.
#pragma once

#include <algorithm>
#include <vector>

#include "sparse/csr.hpp"

namespace pdslin {

struct Supernodes {
  /// Column ranges: supernode s spans columns [start[s], start[s+1]).
  std::vector<index_t> start;  // size num + 1
  [[nodiscard]] index_t count() const {
    return static_cast<index_t>(start.size()) - 1;
  }
  [[nodiscard]] index_t width(index_t s) const { return start[s + 1] - start[s]; }
  /// Column → supernode id.
  std::vector<index_t> of_column;
  /// Average panel width (1.0 = no supernodal structure at all). An empty
  /// factor reports 1.0, never 0.0 — callers divide by this.
  [[nodiscard]] double average_width() const {
    return count() <= 0 ? 1.0
                        : static_cast<double>(of_column.size()) /
                              static_cast<double>(count());
  }
  [[nodiscard]] index_t max_width() const {
    index_t w = 0;
    for (index_t s = 0; s < count(); ++s) w = std::max(w, width(s));
    return w;
  }
  /// Fraction of columns living in panels of width ≥ min_width.
  [[nodiscard]] double wide_column_fraction(index_t min_width) const {
    if (of_column.empty()) return 0.0;
    index_t wide = 0;
    for (index_t s = 0; s < count(); ++s) {
      if (width(s) >= min_width) wide += width(s);
    }
    return static_cast<double>(wide) / static_cast<double>(of_column.size());
  }
};

/// Relaxed amalgamation on a symbolic Cholesky factor given by its
/// elimination tree and column counts: column j joins column j−1's panel iff
/// parent(j−1) == j (so the panel stays an e-tree chain), the width stays
/// under `max_width` (0 = unlimited), and the structural zeros the merge
/// introduces into the dense lower panel stay within `relax` × (true factor
/// entries of the panel). relax == 0 gives the fundamental supernodes:
/// column j joins iff parent(j−1) == j and colcount(j) == colcount(j−1) − 1
/// (identical below-diagonal structure), under the width cap.
Supernodes relaxed_supernodes(const std::vector<index_t>& parent,
                              const std::vector<index_t>& col_counts,
                              index_t max_width, double relax);

}  // namespace pdslin
