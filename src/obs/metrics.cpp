#include "obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace pdslin::obs {

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()),
      buckets_(new std::atomic<long long>[bounds.size() + 1]) {
  PDSLIN_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                   "histogram bounds must be ascending");
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20; a CAS loop keeps us portable to
  // toolchains that lack the libatomic specialization.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

std::vector<long long> Histogram::bucket_counts() const {
  std::vector<long long> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const std::vector<long long> counts = bucket_counts();
  long long total = 0;
  for (const long long c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  long long cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cum += counts[i];
    if (static_cast<double>(cum) < rank) continue;
    if (i >= bounds_.size()) return bounds_.empty() ? 0.0 : bounds_.back();
    const double lo = i == 0 ? 0.0 : bounds_[i - 1];
    const double hi = bounds_[i];
    const double in_bucket = static_cast<double>(counts[i]);
    const double below = static_cast<double>(cum - counts[i]);
    const double frac =
        in_bucket > 0.0 ? (rank - below) / in_bucket : 0.0;
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;

  bool name_taken_elsewhere(std::string_view name, int kind) const {
    if (kind != 0 && counters.find(name) != counters.end()) return true;
    if (kind != 1 && gauges.find(name) != gauges.end()) return true;
    if (kind != 2 && histograms.find(name) != histograms.end()) return true;
    return false;
  }
};

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry r;
  return r;
}

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl impl;
  return impl;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  auto it = im.counters.find(name);
  if (it == im.counters.end()) {
    PDSLIN_CHECK_MSG(!im.name_taken_elsewhere(name, 0),
                     "metric name registered with a different kind");
    it = im.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  auto it = im.gauges.find(name);
  if (it == im.gauges.end()) {
    PDSLIN_CHECK_MSG(!im.name_taken_elsewhere(name, 1),
                     "metric name registered with a different kind");
    it = im.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  auto it = im.histograms.find(name);
  if (it == im.histograms.end()) {
    PDSLIN_CHECK_MSG(!im.name_taken_elsewhere(name, 2),
                     "metric name registered with a different kind");
    it = im.histograms
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(new Histogram(bounds)))
             .first;
  }
  return *it->second;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  std::vector<MetricSample> out;
  out.reserve(im.counters.size() + im.gauges.size() + im.histograms.size());
  for (const auto& [name, c] : im.counters) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::Counter;
    s.value = static_cast<double>(c->value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : im.gauges) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::Gauge;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : im.histograms) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::Histogram;
    s.value = h->sum();
    s.count = h->count();
    s.bounds = h->bounds();
    s.buckets = h->bucket_counts();
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

void MetricsRegistry::reset_values() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  for (auto& [name, c] : im.counters) c->v_.store(0);
  for (auto& [name, g] : im.gauges) g->v_.store(0.0);
  for (auto& [name, h] : im.histograms) {
    for (std::size_t i = 0; i <= h->bounds_.size(); ++i) h->buckets_[i].store(0);
    h->count_.store(0);
    h->sum_.store(0.0);
  }
}

}  // namespace pdslin::obs
