// Structured tracing: scoped spans recorded into per-thread buffers and
// exported as Chrome trace-event JSON (load in chrome://tracing or
// https://ui.perfetto.dev).
//
// Design constraints, in order:
//   1. Disabled cost ≈ zero. A PDSLIN_SPAN behind a disabled tracer is one
//      relaxed atomic load; nothing is allocated, nothing is written.
//   2. Recording never takes a lock. Each thread owns its buffer; only the
//      published-count atomic is shared with the exporter (release/acquire),
//      so recording is safe under TSan with a concurrent export.
//   3. Help-first nesting safety. TaskGroup::wait() executes *foreign*
//      tasks on the waiting thread, so one thread's stack interleaves spans
//      of different logical tasks. Spans are strict RAII scopes, which
//      guarantees LIFO open/close per thread no matter whose work runs; the
//      recorded depth is the per-thread scope depth at open.
//   4. Determinism untouched. Tracing observes; it never changes schedules,
//      allocation of solver data, or any numeric path.
//
// When the buffer fills, new events are dropped (and counted) rather than
// overwriting old ones — the published prefix stays immutable, which is what
// makes concurrent export race-free.
#pragma once

#include <cstdint>
#include <string>

namespace pdslin::obs {

/// Small dense id for the calling thread, assigned on first use (stable for
/// the thread's lifetime). Used for trace tids and log-line tags.
unsigned thread_index();

/// Attach a human-readable label to the calling thread ("pool-worker",
/// "main"); exported as Chrome thread_name metadata.
void label_this_thread(const std::string& label);

struct TraceOptions {
  /// Events retained per thread; further events are dropped and counted.
  std::size_t buffer_capacity = 1u << 16;
};

/// Start recording. Clears nothing: spans recorded before a trace_reset()
/// remain exportable. Idempotent (re-enable keeps existing buffers).
void trace_enable(const TraceOptions& opt = {});
/// Stop recording (spans already open still record on close; new spans are
/// free no-ops). Idempotent.
void trace_disable();
[[nodiscard]] bool trace_enabled();
/// Drop all recorded events and start a fresh epoch. Safe to call while
/// other threads hold spans: their buffers are retired, not freed.
void trace_reset();

struct TraceCounters {
  std::uint64_t recorded = 0;  // events in the current epoch's buffers
  std::uint64_t dropped = 0;   // events lost to full buffers
  std::uint64_t buffer_allocs = 0;  // per-thread buffer allocations, ever
  unsigned threads = 0;        // threads that recorded this epoch
};
[[nodiscard]] TraceCounters trace_counters();

/// Render every recorded event of the current epoch as one Chrome
/// trace-event JSON document ({"traceEvents":[...]}). Safe concurrently
/// with recording (a consistent prefix of each thread's events is shown).
[[nodiscard]] std::string trace_to_chrome_json();
/// trace_to_chrome_json() to a file; returns false (and logs) on I/O error.
bool trace_write_file(const std::string& path);

/// Honour the PDSLIN_TRACE environment variable: unset/"0" → off; "1"/"on"
/// → enable recording; any other value → enable and remember it as an
/// output path for trace_finalize_env(). Returns true if tracing was
/// enabled. Call once near the top of main().
bool trace_init_from_env();
/// Write the trace to the path remembered by trace_init_from_env(), if any.
/// Call once before exiting. No-op otherwise.
void trace_finalize_env();

/// RAII span. Use via the PDSLIN_SPAN macros; constructing one while
/// tracing is disabled is a no-op.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::int32_t arg = -1);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  void* buffer_ = nullptr;  // ThreadTraceBuffer*, set when active
  double start_us_ = 0.0;
  std::int32_t arg_ = -1;
  std::uint16_t depth_ = 0;
};

}  // namespace pdslin::obs

#define PDSLIN_OBS_CAT2(a, b) a##b
#define PDSLIN_OBS_CAT(a, b) PDSLIN_OBS_CAT2(a, b)

/// Scoped span covering the rest of the enclosing block.
#define PDSLIN_SPAN(name) \
  ::pdslin::obs::TraceSpan PDSLIN_OBS_CAT(pdslin_span_, __COUNTER__)(name)
/// Span with a small integer argument (subdomain index, recursion depth, …)
/// exported as args.i.
#define PDSLIN_SPAN_I(name, arg) \
  ::pdslin::obs::TraceSpan PDSLIN_OBS_CAT(pdslin_span_, __COUNTER__)( \
      name, static_cast<std::int32_t>(arg))
