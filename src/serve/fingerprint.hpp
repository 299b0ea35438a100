// Request keying for the solve service: a 128-bit fingerprint of a CSR
// matrix, split into a structural half (dimensions + sparsity pattern) and a
// numeric half (the value bytes). Two requests with equal fingerprints may
// share one cached SchurSolver setup outright; equal structure hashes alone
// still allow the partition (the symbolic half of setup) to be reused while
// the numeric factorization is redone — the HYLU-style reuse ladder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sparse/csr.hpp"
#include "util/hash.hpp"

namespace pdslin {
struct SolverOptions;  // core/schur_solver.hpp
}

namespace pdslin::serve {

struct Fingerprint {
  /// Hash of (rows, cols, row_ptr, col_idx) — the sparsity pattern.
  std::uint64_t structure = 0;
  /// Hash of the value array bytes (0 for a pattern-only matrix).
  std::uint64_t values = 0;

  auto operator<=>(const Fingerprint&) const = default;

  /// "0123456789abcdef:fedcba9876543210" — log/report rendering.
  [[nodiscard]] std::string to_string() const;

  /// 32 lowercase hex digits, the form pdslin_serve logs per request:
  /// structure then values, each as its 8 bytes little-endian (least
  /// significant byte first) regardless of host order. Pinned by test.
  [[nodiscard]] std::string to_hex() const;
};

using pdslin::hash_bytes;  // util/hash.hpp

/// Fingerprint a matrix: O(nnz) hashing, no allocation. The structure half
/// is pattern_hash(a).
Fingerprint fingerprint_of(const CsrMatrix& a);

/// Hash the SolverOptions fields that the for_each_option table marks
/// setup-affecting. Thread counts and the Krylov knobs are excluded, so
/// requests differing only there still share a setup.
std::uint64_t setup_options_hash(const pdslin::SolverOptions& opt);

/// Full cache key: matrix fingerprint + setup-affecting options.
struct SetupKey {
  Fingerprint fp;
  std::uint64_t options = 0;

  auto operator<=>(const SetupKey&) const = default;

  /// Key of the symbolic (pattern + options, values ignored) equivalence
  /// class — the partition-reuse level of the ladder.
  [[nodiscard]] SetupKey symbolic() const {
    return SetupKey{Fingerprint{fp.structure, 0}, options};
  }
  [[nodiscard]] std::string to_string() const;
};

}  // namespace pdslin::serve
