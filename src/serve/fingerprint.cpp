#include "serve/fingerprint.hpp"

#include <cstdio>
#include <type_traits>

#include "core/schur_solver.hpp"
#include "util/error.hpp"

namespace pdslin::serve {

std::uint64_t hash_bytes(const void* data, std::size_t len,
                         std::uint64_t seed) {
  // FNV-1a, 64-bit. Not cryptographic; collision handling in the cache is
  // "wrong setup reused", so the tests pin distinctness for the perturbation
  // classes the service actually sees (value edits, pattern edits).
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

std::uint64_t hash_u64(std::uint64_t v, std::uint64_t h) {
  return hash_bytes(&v, sizeof(v), h);
}

std::uint64_t hash_double(double v, std::uint64_t h) {
  return hash_bytes(&v, sizeof(v), h);
}

}  // namespace

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
  // Adaptive-σ state (serve/adapt.hpp) is deliberately not hashed: one
  // matrix class keeps one cache entry while its σ is tuned in place.
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

std::array<std::uint8_t, Fingerprint::kWireBytes> Fingerprint::to_bytes()
    const {
  std::array<std::uint8_t, kWireBytes> out{};
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(structure >> (8 * i));
    out[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(values >> (8 * i));
  }
  return out;
}

Fingerprint Fingerprint::from_bytes(std::span<const std::uint8_t> bytes) {
  PDSLIN_CHECK_MSG(bytes.size() == kWireBytes,
                   "Fingerprint::from_bytes needs exactly 16 bytes");
  Fingerprint fp;
  for (int i = 0; i < 8; ++i) {
    fp.structure |= static_cast<std::uint64_t>(bytes[static_cast<std::size_t>(i)])
                    << (8 * i);
    fp.values |=
        static_cast<std::uint64_t>(bytes[static_cast<std::size_t>(8 + i)])
        << (8 * i);
  }
  return fp;
}

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string Fingerprint::to_hex() const {
  static const char* digits = "0123456789abcdef";
  const auto bytes = to_bytes();
  std::string out(2 * kWireBytes, '0');
  for (std::size_t i = 0; i < kWireBytes; ++i) {
    out[2 * i] = digits[bytes[i] >> 4];
    out[2 * i + 1] = digits[bytes[i] & 0xF];
  }
  return out;
}

std::optional<Fingerprint> Fingerprint::from_hex(std::string_view hex) {
  std::string compact;
  if (hex.size() == 2 * kWireBytes + 1) {  // to_string(): "<16hex>:<16hex>"
    if (hex[16] != ':') return std::nullopt;
    compact.append(hex.substr(0, 16));
    compact.append(hex.substr(17));
    hex = compact;
  }
  if (hex.size() != 2 * kWireBytes) return std::nullopt;
  std::array<std::uint8_t, kWireBytes> bytes{};
  for (std::size_t i = 0; i < kWireBytes; ++i) {
    const int hi = hex_digit(hex[2 * i]);
    const int lo = hex_digit(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    bytes[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  // to_string() renders big-endian hex per half; to_hex() renders the
  // little-endian byte serialization. Both land here: detect by length
  // earlier — compact (to_string) input was normalized to big-endian hex,
  // so re-parse each half as a number.
  if (!compact.empty()) {
    Fingerprint fp;
    for (std::size_t i = 0; i < 16; ++i) {
      fp.structure = (fp.structure << 4) |
                     static_cast<std::uint64_t>(hex_digit(compact[i]));
      fp.values = (fp.values << 4) |
                  static_cast<std::uint64_t>(hex_digit(compact[16 + i]));
    }
    return fp;
  }
  return from_bytes(bytes);
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
