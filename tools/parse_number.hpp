// Strict parsing of numeric command-line values, shared by the tools.
#pragma once

#include <charconv>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>

namespace pdslin::tools {

/// The value of numeric flag `flag`: all of `v` must parse as a T in range
/// (no sign on unsigned types, no trailing characters). Throws
/// std::invalid_argument("bad value for <flag>: '<v>'") otherwise; each
/// tool's main prints that after its name and exits 2.
template <typename T>
T parse_number(const std::string& flag, const char* v) {
  T out{};
  const char* end = v + std::strlen(v);
  const auto [stop, ec] = std::from_chars(v, end, out);
  if (ec != std::errc{} || stop != end) {
    throw std::invalid_argument("bad value for " + flag + ": '" + v + "'");
  }
  return out;
}

}  // namespace pdslin::tools
