// pdslin_bench — runs one benchmark workload and reports its metrics.
//
// Usage:
//   pdslin_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//                [--trace-dir DIR] [--smoke] [--out FILE]
//
// Prints one "workload metric value unit" line per metric — the end-to-end
// metrics, or with --trace 1 the per-layer ones — and, as its last line,
//   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:{"value":..,"unit":..}}}
// --out also writes that result with the host fingerprint to FILE.
// Exit status: 0 when the run completed (failed operations are counted in
// the result, not fatal), 2 on a usage error, 3 when a benchmark invariant
// broke, 1 on any other error; only status 0 prints a result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "obs/json.hpp"
#include "parallel/thread_pool.hpp"

using namespace pdslin::benchmark;
namespace json = pdslin::obs::json;

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "pdslin_bench: %s\nusage: pdslin_bench --workload W [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-dir DIR] [--smoke] "
               "[--out FILE]\n",
               msg.c_str());
  std::exit(2);
}

Config parse_args(int argc, char** argv, std::string& out_path) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed needs a whole number");
    } else if (arg == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      cfg.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(cfg.seconds > 0.0)) {
        usage("--seconds needs a positive number");
      }
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      cfg.trace = v == "1";
    } else if (arg == "--trace-dir") {
      cfg.trace_dir = value();
    } else if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--out") {
      out_path = value();
    } else {
      usage("unknown argument " + arg);
    }
  }
  bool known = false;
  for (const std::string& w : workload_names()) known = known || w == cfg.workload;
  if (!known) usage("--workload must name one of the workloads");
  return cfg;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The contract line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string summary_json(const Result& r) {
  std::ostringstream os;
  os << "{\"correct\":" << (r.failed == 0 ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i ? "," : "") << '"' << json::escape(m.name) << "\":{\"value\":"
       << json::number_to_string(m.value) << ",\"unit\":\""
       << json::escape(m.unit) << "\"}";
  }
  os << "}}";
  return os.str();
}

/// The result file: the summary plus what it was measured on.
std::string result_file_json(const Config& cfg, const Result& r) {
  const char* commit = std::getenv("PDSLIN_BENCH_COMMIT");
  std::ostringstream os;
  os << "{\"workload\":\"" << json::escape(cfg.workload) << "\",\"seed\":" << cfg.seed
     << ",\"trace\":" << (cfg.trace ? 1 : 0)
     << ",\"seconds\":" << json::number_to_string(cfg.seconds)
     << ",\"smoke\":" << (cfg.smoke ? "true" : "false")
     << ",\"scale\":" << json::number_to_string(workload_scale(cfg))
     << ",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"pool_threads\":" << pdslin::ThreadPool::shared().size()
     << ",\"compiler\":\"" << json::escape(compiler()) << "\",\"build_type\":\""
     << PDSLIN_BENCH_BUILD_TYPE << "\",\"commit\":\""
     << json::escape(commit != nullptr ? commit : "unknown")
     << "\"},\"result\":" << summary_json(r) << "}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  const Config cfg = parse_args(argc, argv, out_path);
  try {
    const Result r = cfg.trace ? run_traced(cfg) : run_workload(cfg, cfg.seconds).result;
    for (const Metric& m : r.metrics) {
      if (!std::isfinite(m.value)) {
        throw std::logic_error("metric " + m.name + " is not finite");
      }
    }
    for (const Metric& m : r.metrics) {
      std::printf("%s %s %s %s\n", cfg.workload.c_str(), m.name.c_str(),
                  json::number_to_string(m.value).c_str(), m.unit.c_str());
    }
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      out << result_file_json(cfg, r);
      if (!out) throw std::runtime_error("cannot write " + out_path);
    }
    std::printf("%s\n", summary_json(r).c_str());
    return 0;
  } catch (const InvariantError& e) {
    std::fprintf(stderr, "pdslin_bench: benchmark invariant broken: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdslin_bench: %s\n", e.what());
    return 1;
  }
}
