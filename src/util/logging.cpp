#include "util/logging.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "obs/trace.hpp"

namespace pdslin {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Warn};
std::mutex g_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info:  return "INFO ";
    case LogLevel::Warn:  return "WARN ";
    case LogLevel::Error: return "ERROR";
    default:              return "?????";
  }
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void log_message(LogLevel level, const std::string& msg) {
  if (level < g_level.load(std::memory_order_relaxed)) return;
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "[pdslin %s t%02u] ",
                level_name(level), obs::thread_index());
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "%s%s\n", prefix, msg.c_str());
}

}  // namespace pdslin
