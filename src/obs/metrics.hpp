// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms, updated lock-free from any thread and exported as one JSON
// object (standalone or embedded in a RunReport).
//
// Hot paths hold a reference obtained once (function-local static), so the
// steady-state cost of an update is a single relaxed atomic RMW; the
// registry mutex is only touched at first lookup. Instrument freely —
// metrics stay on even when tracing is disabled.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pdslin::obs {

/// Monotonic counter (resettable only through the registry, for tests).
class Counter {
 public:
  void add(long long delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] long long value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<long long> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations ≤ bounds[i], the
/// last bucket counts the rest. Bounds are set at registration and
/// immutable afterwards.
class Histogram {
 public:
  void observe(double v);
  [[nodiscard]] long long count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] std::vector<long long> bucket_counts() const;
  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// owning bucket — the p50/p99 the serve layer reports. Returns 0 when
  /// empty; observations past the last bound clamp to it.
  [[nodiscard]] double quantile(double q) const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::span<const double> bounds);
  std::vector<double> bounds_;  // ascending upper bounds
  std::unique_ptr<std::atomic<long long>[]> buckets_;  // bounds_.size() + 1
  std::atomic<long long> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One exported metric (for report embedding and tests).
struct MetricSample {
  std::string name;
  enum class Kind { Counter, Gauge, Histogram } kind = Kind::Counter;
  double value = 0.0;                 // counter/gauge value, histogram sum
  long long count = 0;                // histogram observation count
  std::vector<double> bounds;         // histogram only
  std::vector<long long> buckets;     // histogram only

  bool operator==(const MetricSample&) const = default;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Find-or-create by name; the returned reference is stable for the
  /// process lifetime. Registering the same name with a different metric
  /// kind throws pdslin::Error.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Histogram bounds are fixed by the FIRST registration; later callers
  /// get the same instance (bounds argument ignored).
  Histogram& histogram(std::string_view name, std::span<const double> bounds);

  /// All metrics, sorted by name. RunReport::capture_metrics renders them
  /// in its `metrics` block.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Zero every value (names and bounds stay registered). Benches and tests
  /// use this to scope metrics to one run.
  void reset_values();

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Shorthands for the common find-or-create calls.
inline Counter& counter(std::string_view name) {
  return MetricsRegistry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return MetricsRegistry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name,
                            std::span<const double> bounds) {
  return MetricsRegistry::instance().histogram(name, bounds);
}

}  // namespace pdslin::obs
