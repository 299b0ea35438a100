#include "util/hash.hpp"

#include <bit>
#include <cstring>

namespace pdslin {

namespace {

/// One lane step: absorb the 8-byte word `w` into the lane state `s`. Each
/// operation is invertible (a multiply by an odd constant, an xor, an
/// xorshift), so for a fixed `s` the step is a bijection of `w`, and for a
/// fixed `w` a bijection of `s`. A multiply passes one difference through
/// unchanged, the top bit; multiplying the word before it meets the state
/// keeps short edits from steering the state to it. Without that, flipping
/// bits 63, 34 and 5 of one word and bit 63 of the lane's next word would
/// cancel out.
std::uint64_t absorb(std::uint64_t s, std::uint64_t w) {
  s ^= w * 0xc2b2ae3d27d4eb4fULL;
  s ^= s >> 29;
  return s * 0x9fb21c651e98df25ULL;
}

/// The murmur3 finalizer: a bijection in which every input bit reaches
/// every output bit.
std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 33);
}

/// The little-endian value of 8 bytes at `p`, so that the hash is a function
/// of the byte sequence alone, on any host.
std::uint64_t load_word(const unsigned char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

}  // namespace

std::uint64_t hash_bytes(const void* data, std::size_t len,
                         std::uint64_t seed) {
  // Four independent multiply-xorshift lanes: 8-byte word w goes to lane
  // w mod 4, so the four dependency chains overlap in the pipeline. Not
  // cryptographic; a collision in the cache means "wrong setup reused", so
  // every step is a bijection of the one word or lane it consumes: a
  // single-word edit, or a new seed, provably changes the hash. The seed
  // enters lane 0 only (the other lanes start from fixed constants), for
  // the same reason.
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t l0 = seed;
  std::uint64_t l1 = 0x9e3779b97f4a7c15ULL;
  std::uint64_t l2 = 0xbf58476d1ce4e5b9ULL;
  std::uint64_t l3 = 0x94d049bb133111ebULL;
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    l0 = absorb(l0, load_word(p + i));
    l1 = absorb(l1, load_word(p + i + 8));
    l2 = absorb(l2, load_word(p + i + 16));
    l3 = absorb(l3, load_word(p + i + 24));
  }
  const std::size_t words_left = (len - i) / 8;  // 0..3
  if (words_left > 0) l0 = absorb(l0, load_word(p + i));
  if (words_left > 1) l1 = absorb(l1, load_word(p + i + 8));
  if (words_left > 2) l2 = absorb(l2, load_word(p + i + 16));
  // The sub-8-byte tail, zero-padded, then the length, both into lane 3.
  // p is only dereferenced when len > 0, so an empty range may pass null.
  const std::size_t tail = len % 8;
  unsigned char last[8] = {};
  if (tail > 0) std::memcpy(last, p + (len - tail), tail);
  l3 = absorb(l3, load_word(last));
  l3 = absorb(l3, static_cast<std::uint64_t>(len));
  // Fold the lanes, avalanching before each joins: still a bijection of
  // each lane with the others fixed, and edits in two different lanes
  // collide only by chance, never through one shared difference as they
  // can under a plain xor of the lanes.
  std::uint64_t h = avalanche(l0);
  h = avalanche(h ^ l1);
  h = avalanche(h ^ l2);
  return avalanche(h ^ l3);
}

}  // namespace pdslin
