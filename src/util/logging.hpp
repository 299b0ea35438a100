// Minimal leveled logger for the library. Benchmarks set the level to Info to
// narrate phases; tests keep the default Warn so output stays clean.
//
// Thread safety: messages are formatted into a single string on the calling
// thread, then written to stderr under one mutex, so concurrent pool workers
// never interleave characters within a line. Every line is tagged with the
// caller's dense thread index (obs::thread_index()), e.g. "[pdslin INFO t03]".
#pragma once

#include <sstream>
#include <string>

namespace pdslin {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Global log level; not thread-safe to mutate while logging concurrently
/// (set it once at program start).
void set_log_level(LogLevel level);
LogLevel log_level();

/// Emit a message at the given level (no-op if below threshold).
void log_message(LogLevel level, const std::string& msg);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}
}  // namespace detail

template <typename... Args>
void log_debug(Args&&... args) {
  if (log_level() <= LogLevel::Debug)
    log_message(LogLevel::Debug, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_info(Args&&... args) {
  if (log_level() <= LogLevel::Info)
    log_message(LogLevel::Info, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_warn(Args&&... args) {
  if (log_level() <= LogLevel::Warn)
    log_message(LogLevel::Warn, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_error(Args&&... args) {
  if (log_level() <= LogLevel::Error)
    log_message(LogLevel::Error, detail::concat(std::forward<Args>(args)...));
}

}  // namespace pdslin
