// Request keying for the solve service: a 128-bit fingerprint of a CSR
// matrix, split into a structural half (dimensions + sparsity pattern) and a
// numeric half (the value bytes). Two requests with equal fingerprints may
// share one cached SchurSolver setup outright; equal structure hashes alone
// still allow the partition (the symbolic half of setup) to be reused while
// the numeric factorization is redone — the HYLU-style reuse ladder.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "sparse/csr.hpp"

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

  /// Canonical 16-byte serialization: structure then values, each 8 bytes
  /// little-endian regardless of host order. This is the form that travels
  /// on the fleet wire protocol and keys workload logs; to_bytes/from_bytes
  /// and to_hex/from_hex are exact inverses (round-trip pinned by test).
  static constexpr std::size_t kWireBytes = 16;
  [[nodiscard]] std::array<std::uint8_t, kWireBytes> to_bytes() const;
  static Fingerprint from_bytes(std::span<const std::uint8_t> bytes);

  /// 32 lowercase hex digits (the byte serialization, hex-encoded).
  [[nodiscard]] std::string to_hex() const;
  /// Parse to_hex() output, or the to_string() rendering with the ':'
  /// separator. Returns nullopt on any malformed input (wrong length,
  /// non-hex digit, misplaced separator).
  static std::optional<Fingerprint> from_hex(std::string_view hex);
};

/// FNV-1a over a byte range; pass the previous hash as `seed` to chain
/// ranges into one stream.
std::uint64_t hash_bytes(const void* data, std::size_t len,
                         std::uint64_t seed = 0xcbf29ce484222325ULL);

/// Fingerprint a matrix: O(nnz) hashing, no allocation.
Fingerprint fingerprint_of(const CsrMatrix& a);

/// Hash the SolverOptions fields that the for_each_option table marks
/// setup-affecting. Thread counts and the Krylov knobs are excluded, so
/// requests differing only there still share a setup and can batch.
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
