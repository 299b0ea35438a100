// pdslin_worker — one shard of the solve fleet (docs/FLEET.md).
//
// Wraps the in-process SolveService behind a socket accept loop speaking
// the fleet wire protocol. Usually spawned by tools/pdslin_fleet or
// bench/fleet; runs standalone for manual setups:
//
//   pdslin_worker --listen unix:/tmp/pdslin-w0.sock
//   pdslin_worker --listen tcp:127.0.0.1:7070 --workers 2 --capacity-mb 256
//
// Options:
//   --listen EP         unix:/path or tcp:host:port (required)
//   --workers N         concurrent batches in the service        [2]
//   --queue N           bounded queue depth                      [256]
//   --capacity-mb M     factor-cache byte budget                 [512]
//   --max-batch N       max coalesced batch width                [32]
//   --cache on|off      factorization cache                      [on]
//   --batch on|off      same-key coalescing                      [on]
//   --verbose           info logging
//
// SIGTERM/SIGINT drain deterministically: stop accepting, finish every
// accepted request, answer it, exit 0. A Shutdown frame from a client does
// the same. Exit is the only output contract; telemetry flows to clients
// through Pong frames.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "fleet/worker.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

using namespace pdslin;

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "pdslin_worker: %s\n(see the header of "
                       "tools/pdslin_worker.cpp for usage)\n", msg);
  std::exit(2);
}

int run(int argc, char** argv) {
  obs::label_this_thread("main");
  fleet::FleetWorkerConfig cfg;
  bool have_listen = false;

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
    if (arg == "--listen") {
      cfg.endpoint = fleet::Endpoint::parse(next());
      have_listen = true;
    } else if (arg == "--workers") {
      cfg.service.workers = static_cast<unsigned>(std::atoi(next()));
    } else if (arg == "--queue") {
      cfg.service.queue_capacity = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--capacity-mb") {
      cfg.service.cache.capacity_bytes =
          static_cast<std::size_t>(std::atoll(next())) << 20;
    } else if (arg == "--max-batch") {
      cfg.service.batcher.max_batch_nrhs =
          static_cast<index_t>(std::atoi(next()));
    } else if (arg == "--cache") {
      cfg.service.enable_cache = on_off(next());
    } else if (arg == "--batch") {
      cfg.service.enable_batching = on_off(next());
    } else if (arg == "--verbose") {
      set_log_level(LogLevel::Info);
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_listen) usage("--listen is required");

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  fleet::FleetWorker worker(cfg);
  worker.start();
  std::printf("pdslin_worker: serving on %s\n",
              worker.endpoint().to_string().c_str());
  std::fflush(stdout);
  while (!g_stop.load(std::memory_order_relaxed) &&
         !worker.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  worker.stop();  // drain: finish-queued, answer everything accepted
  const fleet::WireShardStats s = worker.stats_snapshot();
  std::printf("pdslin_worker: drained — %lld completed (%lld ok, %lld "
              "degraded, %lld failed), cache %lld/%lld hits\n",
              static_cast<long long>(s.completed),
              static_cast<long long>(s.ok),
              static_cast<long long>(s.degraded),
              static_cast<long long>(s.failed),
              static_cast<long long>(s.cache_hits),
              static_cast<long long>(s.cache_hits + s.cache_misses));
  return 0;
}

}  // namespace

// Any error, from the --listen spec to a failed bind, ends the worker with
// a one-line reason and status 1.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdslin_worker: %s\n", e.what());
    return 1;
  }
}
