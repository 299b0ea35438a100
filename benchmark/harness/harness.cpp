#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>

#include "sparse/ops.hpp"
#include "util/timer.hpp"

namespace pdslin::benchmark {

double Result::get(std::string_view name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  throw std::logic_error("metric not recorded: " + std::string(name));
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

SolverOptions bench_options() {
  SolverOptions opt;
  opt.partitioning = PartitionMethod::RHB;
  opt.metric = CutMetric::Soed;
  opt.num_subdomains = 8;
  opt.partition_epsilon = 0.05;
  opt.assembly.drop_wg = 1e-6;
  opt.assembly.drop_s = 1e-5;
  return opt;
}

Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL + 1);
}

std::vector<value_t> random_rhs(index_t n, index_t nrhs, std::uint64_t seed,
                                std::uint64_t stream) {
  Rng rng = stream_rng(seed, stream);
  std::vector<value_t> b(static_cast<std::size_t>(n) *
                         static_cast<std::size_t>(nrhs));
  for (value_t& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

double relative_residual(const CsrMatrix& a, std::span<const value_t> b,
                         std::span<const value_t> x) {
  if (b.size() != static_cast<std::size_t>(a.rows) || x.size() != b.size()) {
    return INFINITY;
  }
  std::vector<value_t> ax(b.size());
  spmv(a, x, ax);
  double rr = 0.0;
  double bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rr += (b[i] - ax[i]) * (b[i] - ax[i]);
    bb += b[i] * b[i];
  }
  return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

std::shared_ptr<SchurSolver> build_solver(const GeneratedProblem& p,
                                          const SolverOptions& opt) {
  auto solver = std::make_shared<SchurSolver>(p.a, opt);
  solver->setup(p.incidence.rows > 0 ? &p.incidence : nullptr, p.coords);
  solver->factor();
  return solver;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // Linux: KiB
}

namespace {

void record_reply(ServedStats& s, RequestKind kind,
                  const serve::SolveResponse& resp, double latency_s,
                  const CsrMatrix& a, std::span<const value_t> b) {
  s.latency_ms.push_back(latency_s * 1e3);
  s.queue_ms.push_back(resp.queue_seconds * 1e3);
  s.solve_ms.push_back(resp.solve_seconds * 1e3);
  s.setup_s_sum += resp.setup_seconds;
  ++s.replies;
  const bool ok = resp.status == serve::ServeStatus::Ok &&
                  relative_residual(a, b, resp.x) <= kResidualBound;
  if (!ok) ++s.failed;
  switch (kind) {
    case RequestKind::Hit:
      if (!resp.cache_hit) {
        throw InvariantError("a hit request was answered by a new set-up");
      }
      ++s.hits;
      s.hit_ms_per_rhs.push_back(resp.solve_seconds * 1e3 /
                                 std::max(1, resp.batch_width));
      break;
    case RequestKind::Refactor:
      if (resp.cache_hit || !resp.symbolic_reuse) {
        throw InvariantError("a refactor request did not reuse its partition");
      }
      ++s.symbolic;
      break;
    case RequestKind::Cold:
      if (resp.cache_hit || resp.symbolic_reuse) {
        throw InvariantError("a cold request was answered from the cache");
      }
      ++s.cold;
      break;
  }
}

}  // namespace

ServedStats& ServedStats::operator+=(const ServedStats& later) {
  const auto append = [](std::vector<double>& dst, const std::vector<double>& src) {
    dst.insert(dst.end(), src.begin(), src.end());
  };
  append(latency_ms, later.latency_ms);
  append(queue_ms, later.queue_ms);
  append(solve_ms, later.solve_ms);
  append(hit_ms_per_rhs, later.hit_ms_per_rhs);
  setup_s_sum += later.setup_s_sum;
  replies += later.replies;
  failed += later.failed;
  hits += later.hits;
  symbolic += later.symbolic;
  cold += later.cold;
  wall_s += later.wall_s;
  cpu_s += later.cpu_s;
  batches += later.batches;
  batched_nrhs += later.batched_nrhs;
  cache_evictions += later.cache_evictions;
  cache_mb = later.cache_mb;
  return *this;
}

ServedStats serve_closed_loop(serve::SolveService& svc, const RequestMaker& make,
                              double seconds, unsigned clients) {
  ServedStats total;
  std::mutex mu;  // guards total and error
  std::exception_ptr error;
  std::atomic<long long> next{0};
  const serve::ServiceStats svc_before = svc.stats();
  const long long evictions_before = svc.cache().stats().evictions;
  const Clock::time_point start = Clock::now();
  const CpuTimer cpu;
  const auto client = [&] {
    ServedStats mine;
    try {
      do {
        ServedRequest sr = make(next.fetch_add(1));
        const std::shared_ptr<const CsrMatrix> a = sr.req.a;
        const std::vector<value_t> b = sr.req.b;
        const Clock::time_point t0 = Clock::now();
        const serve::SolveResponse resp = svc.solve(std::move(sr.req));
        record_reply(mine, sr.kind, resp, seconds_since(t0), *a, b);
      } while (seconds_since(start) < seconds);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
    }
    const std::lock_guard<std::mutex> lock(mu);
    total += mine;
  };
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client);
  }
  total.wall_s = seconds_since(start);
  total.cpu_s = cpu.seconds();
  if (error) std::rethrow_exception(error);
  const serve::ServiceStats svc_after = svc.stats();
  const serve::FactorCacheStats cache = svc.cache().stats();
  total.batches = svc_after.batches - svc_before.batches;
  total.batched_nrhs = svc_after.batched_nrhs - svc_before.batched_nrhs;
  total.cache_evictions = cache.evictions - evictions_before;
  total.cache_mb = static_cast<double>(cache.bytes) / 1e6;
  return total;
}

}  // namespace pdslin::benchmark
