#include "serve/fingerprint.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include "core/schur_solver.hpp"

namespace pdslin::serve {

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

std::uint64_t hash_u64(std::uint64_t v, std::uint64_t h) {
  return hash_bytes(&v, sizeof(v), h);
}

std::uint64_t hash_double(double v, std::uint64_t h) {
  return hash_bytes(&v, sizeof(v), h);
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

Fingerprint fingerprint_of(const CsrMatrix& a) {
  Fingerprint fp;
  // Dimensions first so an empty n×m pattern differs from an empty p×q one.
  std::uint64_t h = hash_u64(static_cast<std::uint64_t>(a.rows),
                             0x9e3779b97f4a7c15ULL);
  h = hash_u64(static_cast<std::uint64_t>(a.cols), h);
  h = hash_bytes(a.row_ptr.data(), a.row_ptr.size() * sizeof(index_t), h);
  h = hash_bytes(a.col_idx.data(), a.col_idx.size() * sizeof(index_t), h);
  fp.structure = h;
  fp.values = a.has_values()
                  ? hash_bytes(a.values.data(),
                               a.values.size() * sizeof(value_t))
                  : 0;
  return fp;
}

std::uint64_t setup_options_hash(const pdslin::SolverOptions& opt) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  for_each_option(opt, [&h](const auto& field) {
    if (!field.setup) return;
    if constexpr (std::is_floating_point_v<
                      std::remove_cvref_t<decltype(field.value)>>) {
      h = hash_double(field.value, h);
    } else {
      h = hash_u64(static_cast<std::uint64_t>(field.value), h);
    }
  });
  return h;
}

std::string Fingerprint::to_hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (const std::uint64_t half : {structure, values}) {
    for (int i = 0; i < 8; ++i) {
      const auto byte = static_cast<unsigned>(half >> (8 * i)) & 0xFFu;
      out += kDigits[byte >> 4];
      out += kDigits[byte & 0xFu];
    }
  }
  return out;
}

std::string Fingerprint::to_string() const {
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx:%016llx",
                static_cast<unsigned long long>(structure),
                static_cast<unsigned long long>(values));
  return buf;
}

std::string SetupKey::to_string() const {
  char buf[56];
  std::snprintf(buf, sizeof(buf), "%s@%016llx", fp.to_string().c_str(),
                static_cast<unsigned long long>(options));
  return buf;
}

}  // namespace pdslin::serve
