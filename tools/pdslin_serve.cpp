// pdslin_serve — workload replay runner for the in-process solve service
// (src/serve/, docs/SERVE.md).
//
// Usage:
//   pdslin_serve --workload FILE            (replay a JSON workload)
//   pdslin_serve --matrix tdr190k [...]     (built-in repeated workload)
//   pdslin_serve --write-example FILE       (emit an example workload, exit)
//
// Workload JSON:
//   {"requests": [
//     {"matrix": "tdr190k",     // suite name or .mtx path
//      "scale": 0.5,            // suite generator scale      [1.0]
//      "seed": 1,               // suite generator seed       [20130520]
//      "nrhs": 4,               // right-hand sides           [1]
//      "repeat": 10,            // expands to this many requests        [1]
//      "perturb_values": 0.0,   // per-repeat relative value noise: same
//                               // pattern, new values (symbolic reuse)  [0]
//      "timeout_ms": 0          // queue deadline, 0 = none   [0]
//     }, ...]}
//   Repeats with perturb_values = 0 share one matrix object (full cache
//   hits); with it > 0 each repeat gets freshly perturbed values (numeric
//   miss + symbolic partition reuse).
// Options:
//   --cache on|off      factorization cache                  [on]
//   --workers N         requests answered concurrently       [2]
//   --queue N           queue capacity (backpressure beyond) [256]
//   --capacity-mb M     cache byte budget                    [512]
//   --requests N / --nrhs N / --scale X   built-in workload shape
//   --threads N         solver subdomain tasks per request   [1]
//   --report-out FILE   write the RunReport JSON
//   --verbose           info logging
// Prints per-status counts, solves/s, cache hit rate, setups built and
// p50/p99 latency, and emits one "BENCH {json}" line.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gen/suite.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "parse_number.hpp"
#include "serve/service.hpp"
#include "sparse/io.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace pdslin;
using tools::parse_number;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "pdslin_serve: %s\n(see the header of "
                       "tools/pdslin_serve.cpp for usage)\n", msg);
  std::exit(2);
}

const char* kExampleWorkload = R"({"requests": [
  {"matrix": "tdr190k", "scale": 0.4, "nrhs": 4, "repeat": 12},
  {"matrix": "G3_circuit", "scale": 0.4, "nrhs": 2, "repeat": 6,
   "perturb_values": 1e-3},
  {"matrix": "matrix211", "scale": 0.4, "nrhs": 1, "repeat": 4}
]}
)";

struct WorkloadEntry {
  std::string matrix = "tdr190k";
  double scale = 1.0;
  std::uint64_t seed = 20130520;
  index_t nrhs = 1;
  int repeat = 1;
  double perturb_values = 0.0;
  double timeout_ms = 0.0;
};

std::vector<WorkloadEntry> parse_workload(const std::string& text) {
  const obs::json::Value doc = obs::json::parse(text);
  const obs::json::Value& reqs = doc.at("requests");
  std::vector<WorkloadEntry> out;
  for (const obs::json::Value& r : reqs.array) {
    WorkloadEntry e;
    if (const auto* v = r.find("matrix")) e.matrix = v->str;
    if (const auto* v = r.find("scale")) e.scale = v->number;
    if (const auto* v = r.find("seed")) e.seed = static_cast<std::uint64_t>(v->number);
    if (const auto* v = r.find("nrhs")) e.nrhs = static_cast<index_t>(v->number);
    if (const auto* v = r.find("repeat")) e.repeat = static_cast<int>(v->number);
    if (const auto* v = r.find("perturb_values")) e.perturb_values = v->number;
    if (const auto* v = r.find("timeout_ms")) e.timeout_ms = v->number;
    out.push_back(e);
  }
  return out;
}

bool is_suite_name(const std::string& name) {
  for (const std::string& s : suite_names()) {
    if (s == name) return true;
  }
  return false;
}

/// Matrix + incidence for one workload entry (shared across its repeats).
struct LoadedMatrix {
  std::shared_ptr<const CsrMatrix> a;
  std::shared_ptr<const CsrMatrix> incidence;
};

LoadedMatrix load_matrix(const WorkloadEntry& e) {
  LoadedMatrix m;
  if (is_suite_name(e.matrix)) {
    GeneratedProblem p = make_suite_matrix(e.matrix, e.scale, e.seed);
    m.a = std::make_shared<const CsrMatrix>(std::move(p.a));
    if (p.incidence.rows > 0) {
      m.incidence = std::make_shared<const CsrMatrix>(std::move(p.incidence));
    }
  } else {
    m.a = std::make_shared<const CsrMatrix>(
        read_matrix_market_file(e.matrix));
  }
  return m;
}

std::shared_ptr<const CsrMatrix> perturb_values(const CsrMatrix& a,
                                                double eps,
                                                std::uint64_t seed) {
  CsrMatrix out = a;
  Rng rng(seed);
  for (value_t& v : out.values) v *= 1.0 + eps * rng.uniform(-1.0, 1.0);
  return std::make_shared<const CsrMatrix>(std::move(out));
}

double quantile_exact(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[std::min(idx, sorted.size() - 1)];
}

int run(int argc, char** argv) {
  obs::label_this_thread("main");
  obs::trace_init_from_env();
  std::string workload_file;
  std::string report_out;
  WorkloadEntry builtin;  // used when no --workload is given
  builtin.scale = 0.4;
  builtin.nrhs = 4;
  builtin.repeat = 16;
  serve::ServiceConfig cfg;
  SolverOptions sopt;
  sopt.assembly.drop_wg = 1e-6;
  sopt.assembly.drop_s = 1e-5;
  sopt.partition_epsilon = 0.05;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    auto on_off = [&](const char* v) -> bool {
      if (std::strcmp(v, "on") == 0) return true;
      if (std::strcmp(v, "off") == 0) return false;
      usage(("expected on|off for " + arg).c_str());
    };
    if (arg == "--workload") {
      workload_file = next();
    } else if (arg == "--write-example") {
      const char* path = next();
      std::ofstream out(path);
      out << kExampleWorkload;
      if (!out) usage("cannot write example workload");
      std::printf("wrote example workload to %s\n", path);
      return 0;
    } else if (arg == "--matrix") {
      builtin.matrix = next();
    } else if (arg == "--scale") {
      builtin.scale = parse_number<double>(arg, next());
    } else if (arg == "--requests") {
      builtin.repeat = parse_number<int>(arg, next());
    } else if (arg == "--nrhs") {
      builtin.nrhs = parse_number<index_t>(arg, next());
    } else if (arg == "--cache") {
      cfg.enable_cache = on_off(next());
    } else if (arg == "--workers") {
      cfg.workers = parse_number<unsigned>(arg, next());
    } else if (arg == "--queue") {
      cfg.queue_capacity = parse_number<std::size_t>(arg, next());
    } else if (arg == "--capacity-mb") {
      const auto mb = parse_number<std::size_t>(arg, next());
      if (mb > (std::numeric_limits<std::size_t>::max() >> 20)) {
        usage("--capacity-mb is too large");
      }
      cfg.cache.capacity_bytes = mb << 20;
    } else if (arg == "--threads") {
      sopt.threads = parse_number<unsigned>(arg, next());
    } else if (arg == "--report-out") {
      report_out = next();
    } else if (arg == "--verbose") {
      set_log_level(LogLevel::Info);
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }

  std::vector<WorkloadEntry> entries;
  if (!workload_file.empty()) {
    std::ifstream in(workload_file);
    if (!in) usage("cannot open workload file");
    std::stringstream ss;
    ss << in.rdbuf();
    entries = parse_workload(ss.str());
  } else {
    entries.push_back(builtin);
  }
  if (entries.empty()) usage("workload has no requests");

  // Expand entries into requests up front so submission measures service
  // throughput, not generator time.
  struct Prepared {
    serve::SolveRequest req;
    std::string matrix;
    std::string fp_hex;  // canonical hex of the request's matrix fingerprint
  };
  std::vector<Prepared> prepared;
  Rng rhs_rng(977);
  for (const WorkloadEntry& e : entries) {
    const LoadedMatrix base = load_matrix(e);
    for (int r = 0; r < std::max(1, e.repeat); ++r) {
      Prepared p;
      p.matrix = e.matrix;
      p.req.a = e.perturb_values > 0.0 && r > 0
                    ? perturb_values(*base.a, e.perturb_values,
                                     e.seed + 1000 + static_cast<std::uint64_t>(r))
                    : base.a;
      p.req.incidence = base.incidence;
      p.req.nrhs = e.nrhs;
      p.req.opt = sopt;
      p.req.timeout_seconds = e.timeout_ms * 1e-3;
      p.req.b.resize(static_cast<std::size_t>(base.a->rows) *
                     static_cast<std::size_t>(e.nrhs));
      for (value_t& v : p.req.b) v = rhs_rng.uniform(-1.0, 1.0);
      p.fp_hex = serve::fingerprint_of(*p.req.a).to_hex();
      prepared.push_back(std::move(p));
    }
  }

  std::printf("pdslin_serve: %zu requests, cache=%s workers=%u queue=%zu "
              "cap=%zuMB\n",
              prepared.size(), cfg.enable_cache ? "on" : "off", cfg.workers,
              cfg.queue_capacity, cfg.cache.capacity_bytes >> 20);

  obs::MetricsRegistry::instance().reset_values();
  WallTimer wall;
  std::vector<std::future<serve::SolveResponse>> futures;
  long long total_nrhs = 0;
  {
    serve::SolveService service(cfg);
    futures.reserve(prepared.size());
    for (Prepared& p : prepared) {
      total_nrhs += p.req.nrhs;
      futures.push_back(service.submit(std::move(p.req)));
    }
    // Leaving the scope drains the queue; collect responses first so the
    // latency numbers are end-to-end.
    std::vector<double> latencies;
    latencies.reserve(futures.size());
    long long by_status[5] = {0, 0, 0, 0, 0};
    long long hits = 0, symbolic = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const serve::SolveResponse resp = futures[i].get();
      by_status[static_cast<int>(resp.status)]++;
      if (resp.cache_hit) ++hits;
      if (resp.symbolic_reuse) ++symbolic;
      latencies.push_back(resp.queue_seconds + resp.setup_seconds +
                          resp.solve_seconds);
      // Workload log line keyed by the canonical fingerprint hex — grep one
      // fingerprint to follow one matrix class through the cache ladder.
      log_info("request ", i, " fp=", prepared[i].fp_hex, " matrix=",
               prepared[i].matrix, " status=", serve::to_string(resp.status),
               resp.cache_hit ? " hit" : (resp.symbolic_reuse ? " symbolic"
                                                              : " cold"));
    }
    const double seconds = wall.seconds();
    const serve::ServiceStats st = service.stats();
    const serve::FactorCacheStats cs = service.cache().stats();

    std::sort(latencies.begin(), latencies.end());
    const double p50 = quantile_exact(latencies, 0.50);
    const double p99 = quantile_exact(latencies, 0.99);
    const double solves_per_s =
        seconds > 0.0 ? static_cast<double>(total_nrhs) / seconds : 0.0;
    const double hit_rate =
        st.completed > 0 ? static_cast<double>(hits) /
                               static_cast<double>(st.completed)
                         : 0.0;

    std::printf("\n%-10s %8s\n", "status", "count");
    const char* names[] = {"ok", "degraded", "timeout", "rejected", "failed"};
    for (int s = 0; s < 5; ++s) {
      if (by_status[s] > 0) std::printf("%-10s %8lld\n", names[s], by_status[s]);
    }
    std::printf("\nwall %.3fs — %.1f solves/s (%lld rhs over %lld requests)\n",
                seconds, solves_per_s, total_nrhs, st.completed);
    std::printf("cache: %.0f%% full hits (%lld/%lld), %lld symbolic reuses, "
                "%lld setups built, %zu entries / %.1f MB resident\n",
                hit_rate * 100.0, hits, st.completed, symbolic,
                st.setups_built, cs.entries,
                static_cast<double>(cs.bytes) / (1 << 20));
    std::printf("latency: p50 %.2fms, p99 %.2fms (exact over %zu requests); "
                "service histogram p50 %.2fms p99 %.2fms\n", p50 * 1e3,
                p99 * 1e3, latencies.size(),
                obs::MetricsRegistry::instance()
                        .histogram("serve.request.latency_seconds", {})
                        .quantile(0.5) * 1e3,
                obs::MetricsRegistry::instance()
                        .histogram("serve.request.latency_seconds", {})
                        .quantile(0.99) * 1e3);

    obs::RunReport report;
    report.tool = "pdslin_serve";
    report.matrix = prepared.size() == 1 ? prepared.front().matrix : "workload";
    report.set_config("cache", cfg.enable_cache ? "on" : "off");
    report.set_config("workers", std::to_string(cfg.workers));
    report.set_stat("requests", static_cast<double>(st.completed));
    report.set_stat("solves_per_second", solves_per_s);
    report.set_stat("cache_hit_rate", hit_rate);
    report.set_stat("symbolic_reuses", static_cast<double>(symbolic));
    report.set_stat("latency_p50_seconds", p50);
    report.set_stat("latency_p99_seconds", p99);
    report.set_stat("degraded", static_cast<double>(st.degraded));
    report.set_stat("failed", static_cast<double>(st.failed));
    report.set_stat("rejected", static_cast<double>(st.rejected));
    report.set_stat("timeouts", static_cast<double>(st.timeouts));
    report.capture_metrics();
    std::printf("BENCH %s\n", report.to_json_line().c_str());
    if (!report_out.empty()) report_write_file(report, report_out);

    return st.failed == 0 ? 0 : 1;
  }
}

}  // namespace

// An error that reaches here (an unreadable input, a bad option value, an
// unknown matrix) ends the run with a one-line reason and the usage-error
// status instead of an abort.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdslin_serve: %s\n", e.what());
    return 2;
  }
}
