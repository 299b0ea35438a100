// Byte hashing for the serve layer's request keys (serve/fingerprint) and
// the incidence a partition was computed from (core/schur_solver).
#pragma once

#include <cstddef>
#include <cstdint>

namespace pdslin {

/// 64-bit hash of a byte range: four multiply-xorshift lanes over 8-byte
/// words. Pass the previous hash as `seed` to chain ranges. Changing any one
/// 8-byte word of the range (counted from its start; the last 1-7 bytes
/// count as one word), or the seed, always changes the result.
std::uint64_t hash_bytes(const void* data, std::size_t len,
                         std::uint64_t seed = 0xcbf29ce484222325ULL);

}  // namespace pdslin
