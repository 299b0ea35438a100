// pdslin_fleet — multi-process fleet driver (docs/FLEET.md).
//
// Spawns N pdslin_worker shards (or connects to already-running ones),
// routes a repeated-solve workload through the consistent-hash router, and
// reports throughput, per-shard placement/health, and cache behaviour.
//
// Usage:
//   pdslin_fleet --shards 4 --requests 64 --classes 8
//   pdslin_fleet --connect unix:/tmp/w0.sock --connect tcp:127.0.0.1:7070
//
// Options:
//   --shards N          spawn N local workers on unix sockets     [2]
//   --worker-bin PATH   worker binary (default: next to pdslin_fleet)
//   --connect EP        use an existing worker (repeatable; disables spawn)
//   --matrix NAME       suite matrix for the workload             [tdr190k]
//   --scale X           suite generator scale                     [0.4]
//   --classes C         distinct matrix classes (value perturbations of the
//                       base — distinct fingerprints, same pattern) [4]
//   --requests N        total requests                            [32]
//   --nrhs K            right-hand sides per request              [2]
//   --zipf S            class popularity skew (0 = uniform)       [0.9]
//   --timeout-s X       router request deadline, 0 = none         [120]
//   --workers/--queue/--capacity-mb/...  forwarded to spawned workers
//   --report-out FILE   write the RunReport JSON
//   --verbose           info logging
// Prints per-shard routing/health tables and emits one "BENCH {json}" line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "fleet/launch.hpp"
#include "fleet/router.hpp"
#include "gen/suite.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "serve/fingerprint.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace pdslin;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "pdslin_fleet: %s\n(see the header of "
                       "tools/pdslin_fleet.cpp for usage)\n", msg);
  std::exit(2);
}

std::string sibling_binary(const char* argv0, const char* name) {
  std::string path = argv0;
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(name)
                                    : path.substr(0, slash + 1) + name;
}

/// Zipf-ish class pick: class c has weight (c+1)^-s.
std::size_t zipf_pick(Rng& rng, const std::vector<double>& cdf) {
  const double u = rng.uniform(0.0, cdf.back());
  return static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

int run(int argc, char** argv) {
  obs::label_this_thread("main");
  obs::trace_init_from_env();

  int n_shards = 2;
  std::string worker_bin = sibling_binary(argv[0], "pdslin_worker");
  std::vector<std::string> connect;
  std::string matrix = "tdr190k";
  double scale = 0.4;
  int classes = 4;
  int requests = 32;
  index_t nrhs = 2;
  double zipf_s = 0.9;
  double timeout_s = 120.0;
  std::vector<std::string> worker_flags;
  std::string report_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--shards") {
      n_shards = std::atoi(next());
    } else if (arg == "--worker-bin") {
      worker_bin = next();
    } else if (arg == "--connect") {
      connect.emplace_back(next());
    } else if (arg == "--matrix") {
      matrix = next();
    } else if (arg == "--scale") {
      scale = std::atof(next());
    } else if (arg == "--classes") {
      classes = std::atoi(next());
    } else if (arg == "--requests") {
      requests = std::atoi(next());
    } else if (arg == "--nrhs") {
      nrhs = static_cast<index_t>(std::atoi(next()));
    } else if (arg == "--zipf") {
      zipf_s = std::atof(next());
    } else if (arg == "--timeout-s") {
      timeout_s = std::atof(next());
    } else if (arg == "--workers" || arg == "--queue" ||
               arg == "--capacity-mb" || arg == "--max-batch" ||
               arg == "--max-wait-ms" || arg == "--cache" ||
               arg == "--batch") {
      worker_flags.push_back(arg);
      worker_flags.emplace_back(next());
    } else if (arg == "--report-out") {
      report_out = next();
    } else if (arg == "--verbose") {
      set_log_level(LogLevel::Info);
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (n_shards < 1 && connect.empty()) usage("need --shards >= 1 or --connect");
  if (classes < 1 || requests < 1) usage("--classes/--requests must be >= 1");

  // Spawn (or adopt) the shards.
  std::vector<fleet::WorkerProcess> procs;
  fleet::FleetRouterConfig rcfg;
  rcfg.request_timeout_seconds = timeout_s;
  if (connect.empty()) {
    for (int s = 0; s < n_shards; ++s) {
      fleet::WorkerSpawnOptions wopt;
      wopt.worker_bin = worker_bin;
      wopt.endpoint = fleet::Endpoint::parse(
          "unix:/tmp/pdslin-fleet-" + std::to_string(::getpid()) + "-" +
          std::to_string(s) + ".sock");
      wopt.extra_args = worker_flags;
      procs.push_back(fleet::WorkerProcess::spawn(wopt));
      rcfg.shards.push_back({"w" + std::to_string(s), wopt.endpoint});
    }
  } else {
    for (std::size_t s = 0; s < connect.size(); ++s) {
      rcfg.shards.push_back(
          {"w" + std::to_string(s), fleet::Endpoint::parse(connect[s])});
    }
  }

  // Workload: `classes` distinct value-perturbations of one suite matrix
  // (distinct fingerprints — each class pins to one shard's cache), picked
  // with Zipfian popularity.
  GeneratedProblem base = make_suite_matrix(matrix, scale, 20130520);
  auto incidence = base.incidence.rows > 0
                       ? std::make_shared<const CsrMatrix>(base.incidence)
                       : nullptr;
  std::vector<std::shared_ptr<const CsrMatrix>> class_matrices;
  Rng rng(4242);
  for (int c = 0; c < classes; ++c) {
    CsrMatrix m = base.a;
    if (c > 0) {
      Rng crng(1000 + static_cast<std::uint64_t>(c));
      for (value_t& v : m.values) v *= 1.0 + 1e-4 * crng.uniform(-1.0, 1.0);
    }
    class_matrices.push_back(std::make_shared<const CsrMatrix>(std::move(m)));
  }
  std::vector<double> cdf;
  double acc = 0.0;
  for (int c = 0; c < classes; ++c) {
    acc += 1.0 / std::pow(static_cast<double>(c + 1), zipf_s);
    cdf.push_back(acc);
  }

  SolverOptions sopt;
  sopt.assembly.drop_wg = 1e-6;
  sopt.assembly.drop_s = 1e-5;
  sopt.partition_epsilon = 0.05;

  obs::MetricsRegistry::instance().reset_values();
  fleet::FleetRouter router(rcfg);
  router.start();

  std::printf("pdslin_fleet: %zu shard(s), %d request(s) over %d class(es) "
              "of %s (n=%lld, zipf %.2f)\n",
              rcfg.shards.size(), requests, classes, matrix.c_str(),
              static_cast<long long>(base.a.rows), zipf_s);
  for (std::size_t c = 0; c < class_matrices.size(); ++c) {
    const serve::Fingerprint fp = serve::fingerprint_of(*class_matrices[c]);
    std::printf("  class %zu fp=%s -> shard %s\n", c, fp.to_hex().c_str(),
                rcfg.shards[router.route_of(
                                fp, serve::setup_options_hash(sopt))]
                    .name.c_str());
  }

  WallTimer wall;
  std::vector<std::future<serve::SolveResponse>> futures;
  futures.reserve(static_cast<std::size_t>(requests));
  long long total_nrhs = 0;
  for (int r = 0; r < requests; ++r) {
    serve::SolveRequest req;
    req.a = class_matrices[zipf_pick(rng, cdf)];
    req.incidence = incidence;
    req.nrhs = nrhs;
    req.opt = sopt;
    req.b.resize(static_cast<std::size_t>(req.a->rows) *
                 static_cast<std::size_t>(nrhs));
    for (value_t& v : req.b) v = rng.uniform(-1.0, 1.0);
    total_nrhs += nrhs;
    futures.push_back(router.submit(std::move(req)));
  }

  long long by_status[5] = {0, 0, 0, 0, 0};
  long long hits = 0;
  for (auto& f : futures) {
    const serve::SolveResponse resp = f.get();
    by_status[static_cast<int>(resp.status)]++;
    if (resp.cache_hit) ++hits;
  }
  const double seconds = wall.seconds();
  const double solves_per_s =
      seconds > 0.0 ? static_cast<double>(total_nrhs) / seconds : 0.0;

  std::printf("\nwall %.3fs — %.1f solves/s (%lld rhs over %d requests)\n",
              seconds, solves_per_s, total_nrhs, requests);
  const char* names[] = {"ok", "degraded", "timeout", "rejected", "failed"};
  for (int s = 0; s < 5; ++s) {
    if (by_status[s] > 0) std::printf("%-10s %8lld\n", names[s], by_status[s]);
  }

  std::printf("\n%-8s %-9s %9s %9s %9s %10s\n", "shard", "state", "routed",
              "completed", "hit-rate", "cache-MB");
  for (std::size_t s = 0; s < router.shard_count(); ++s) {
    const fleet::ShardHealth h = router.shard_health(s);
    std::printf("%-8s %-9s %9lld %9lld %8.0f%% %10.1f\n", h.name.c_str(),
                fleet::to_string(h.state), h.routed,
                static_cast<long long>(h.stats.completed),
                h.stats.cache_hit_rate() * 100.0,
                static_cast<double>(h.stats.cache_bytes) / (1 << 20));
  }

  obs::RunReport report;
  report.tool = "pdslin_fleet";
  report.matrix = matrix;
  report.n = base.a.rows;
  report.set_config("shards", std::to_string(rcfg.shards.size()));
  report.set_config("classes", std::to_string(classes));
  report.set_config("zipf", std::to_string(zipf_s));
  report.set_stat("requests", static_cast<double>(requests));
  report.set_stat("solves_per_second", solves_per_s);
  report.set_stat("cache_hits", static_cast<double>(hits));
  report.set_stat("failed", static_cast<double>(by_status[4]));
  report.set_stat("rejected", static_cast<double>(by_status[3]));
  report.capture_metrics();
  std::printf("BENCH %s\n", report.to_json_line().c_str());
  if (!report_out.empty()) report_write_file(report, report_out);

  // Graceful fleet stop: ask every shard to drain, then reap the processes.
  if (!procs.empty()) {
    const std::size_t acked = router.broadcast_shutdown();
    log_info("fleet: ", acked, "/", procs.size(), " shard(s) acked shutdown");
  }
  router.stop();
  for (fleet::WorkerProcess& p : procs) p.terminate();

  return by_status[4] == 0 ? 0 : 1;
}

}  // namespace

// An error that reaches here (an unreadable input, a bad option value, an
// unknown matrix) ends the run with a one-line reason and the usage-error
// status instead of an abort.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdslin_fleet: %s\n", e.what());
    return 2;
  }
}
