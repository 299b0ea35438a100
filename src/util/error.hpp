// Error handling utilities: checked preconditions and a library exception type.
//
// Library code throws pdslin::Error on precondition violations rather than
// aborting, so callers (tests, long-running drivers) can recover.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace pdslin {

/// Exception type thrown by all pdslin components on contract violations
/// (bad dimensions, non-finite input where finiteness is required, etc.).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// The repository path of a source file, from its last "src/" directory on
/// ("src/direct/lu.cpp"), else its base name: a message names the file the
/// same way whatever directory the library was built in.
inline std::string_view source_path(std::string_view file) {
  if (file.starts_with("src/")) return file;
  if (const auto at = file.rfind("/src/"); at != std::string_view::npos) {
    return file.substr(at + 1);
  }
  const auto slash = file.rfind('/');
  return slash == std::string_view::npos ? file : file.substr(slash + 1);
}

[[noreturn]] inline void raise(const char* expr, const char* file, int line,
                               const std::string& msg) {
  std::string full = std::string("pdslin check failed: ") + expr + " at ";
  full += source_path(file);
  full += ":" + std::to_string(line);
  if (!msg.empty()) full += " — " + msg;
  throw Error(full);
}
}  // namespace detail

}  // namespace pdslin

/// Precondition check that is always active (release builds included).
/// Use for user-facing API contracts.
#define PDSLIN_CHECK(expr)                                              \
  do {                                                                  \
    if (!(expr)) ::pdslin::detail::raise(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define PDSLIN_CHECK_MSG(expr, msg)                                        \
  do {                                                                     \
    if (!(expr)) ::pdslin::detail::raise(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)

/// Internal invariant check; compiled out in NDEBUG builds.
#ifdef NDEBUG
#define PDSLIN_ASSERT(expr) ((void)0)
#else
#define PDSLIN_ASSERT(expr) PDSLIN_CHECK(expr)
#endif
