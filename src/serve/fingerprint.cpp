#include "serve/fingerprint.hpp"

#include <cstdio>
#include <type_traits>

#include "core/schur_solver.hpp"

namespace pdslin::serve {

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
  fp.structure = pattern_hash(a);
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
