// The four workloads. Each reports every end-to-end metric, measured the
// same way everywhere:
//   setup_s               median construct + setup() + factor() of the run
//                         (serve-mix: median wall time of a warm-up that
//                         fills an empty cache with its three hot classes)
//   solve_min_ms_per_rhs  fastest solve of one right-hand side on a
//                         factored system (serve-mix: batch solve time /
//                         width of the cache hits)
//   served_min_ms         fastest request through an in-process
//                         SolveService, solve() call to reply (serve-mix: a
//                         closed loop of two clients that each wait for
//                         their reply; the others: one client, the
//                         workload's own set-up in the cache)
//   setup_mem_mb          SchurSolver::memory_bytes() of the set-up
//                         (serve-mix: cache bytes after the warm-up)
//   peak_rss_mb           ru_maxrss of the process
// The solve and served times are the fastest of many, not the median: on a
// shared host other tenants slow a run by a share that drifts by 10-25%
// over tens of seconds, which moves every median with it, while the
// fastest repetitions of a short operation move far less (README.md, "Why
// minima"). The medians and tails are per-layer metrics of the traced run.
#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "gen/suite.hpp"
#include "harness.hpp"
#include "serve/fingerprint.hpp"
#include "util/timer.hpp"

namespace pdslin::benchmark {

namespace {

/// serve-mix clients: as many as the service has workers, so a request
/// never queues behind another and its latency is its own path through the
/// service. With four clients every request waited for someone else's
/// batch, and the fastest reply moved by a quarter between runs.
constexpr unsigned kMixClients = 2;
/// Solves, and as many requests, in each round at the least: on a slow
/// host the set-ups would otherwise leave too few for a minimum.
constexpr int kMinSolvesPerRound = 20;
/// Generator seed of every workload system: the systems stay fixed, and the
/// run seed draws right-hand sides, refactor shifts and cold patterns. (A
/// seeded tdr190k can be hard enough that some right-hand sides miss the
/// residual bound.)
constexpr std::uint64_t kSystemSeed = 20130520;
constexpr double kSmokeScale = 0.05;

// Random streams of one run; each request or solve index adds to its base.
constexpr std::uint64_t kStreamSolve = 1ULL << 32;
constexpr std::uint64_t kStreamServed = 2ULL << 32;
constexpr std::uint64_t kStreamWarmup = 3ULL << 32;
constexpr std::uint64_t kStreamMixRequest = 4ULL << 32;

bool bitwise_equal(const std::vector<value_t>& a, const std::vector<value_t>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](value_t x, value_t y) {
           return std::memcmp(&x, &y, sizeof x) == 0;
         });
}

std::shared_ptr<const GeneratedProblem> generate(const char* name, double scale,
                                                 std::uint64_t seed) {
  return std::make_shared<const GeneratedProblem>(
      make_suite_matrix(name, scale, seed));
}

/// A request against problem `p` (shared, never copied) with options `opt`.
serve::SolveRequest request_for(const std::shared_ptr<const GeneratedProblem>& p,
                                const SolverOptions& opt, std::vector<value_t> b) {
  serve::SolveRequest req;
  req.a = std::shared_ptr<const CsrMatrix>(p, &p->a);
  if (p->incidence.rows > 0) {
    req.incidence = std::shared_ptr<const CsrMatrix>(p, &p->incidence);
  }
  if (!p->coords.empty()) {
    req.coords = std::shared_ptr<const std::vector<double>>(p, &p->coords);
  }
  req.b = std::move(b);
  req.opt = opt;
  return req;
}

/// Check one solved column; counts it as attempted, and as failed when its
/// residual is out of bound.
void check_column(Result& r, const CsrMatrix& a, std::span<const value_t> b,
                  std::span<const value_t> x) {
  ++r.attempted;
  if (!(relative_residual(a, b, x) <= kResidualBound)) ++r.failed;
}

/// Solves fresh right-hand side number `k` on `solver`, checks the answer
/// and returns the solve's wall seconds.
double solve_fresh(const Config& cfg, WorkloadRun& run, const SchurSolver& solver,
                   SchurSolver::SolveContext& ctx, std::uint64_t k) {
  const CsrMatrix& a = run.primary->a;
  const std::vector<value_t> b = random_rhs(a.rows, 1, cfg.seed, kStreamSolve + k);
  std::vector<value_t> x(b.size(), 0.0);
  const CpuTimer cpu;
  const Clock::time_point t0 = Clock::now();
  solver.solve(b, x, ctx);
  const double wall = seconds_since(t0);
  run.solve_wall_s += wall;
  run.solve_cpu_s += cpu.seconds();
  check_column(run.result, a, b, x);
  return wall;
}

void add_end_to_end(WorkloadRun& run, double setup_s,
                    std::vector<double> solve_ms_per_rhs, double setup_mem_mb) {
  const ServedStats& s = run.served;
  Result& r = run.result;
  run.solve_ms_per_rhs = std::move(solve_ms_per_rhs);
  r.add("setup_s", setup_s, "s");
  r.add("solve_min_ms_per_rhs", quantile(run.solve_ms_per_rhs, 0.0), "ms");
  r.add("served_min_ms", quantile(s.latency_ms, 0.0), "ms");
  r.add("setup_mem_mb", setup_mem_mb, "MB");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.attempted += s.replies;
  r.failed += s.failed;
}

// cold-cavity, cold-circuit and warm-krylov: `count` rounds of equal
// length, enough set-ups for a median and for the bitwise comparison of
// their answers. Each round sets the system up cold — one set-up alive at
// a time, as a user would have — solves the same right-hand side as every
// other round, which must come out bitwise identical, and then until the
// round ends, and at least kMinSolvesPerRound times, alternates a solve of
// a fresh right-hand side with a request for one through a service holding
// the set-up. Set-ups, solves and requests thus each sample the whole run.
WorkloadRun rounds(const Config& cfg, double seconds, const char* matrix,
                   const SolverOptions& opt, int count) {
  WorkloadRun run;
  run.primary = generate(matrix, workload_scale(cfg), kSystemSeed);
  run.primary_opt = opt;
  const GeneratedProblem& p = *run.primary;
  const std::vector<value_t> b = random_rhs(p.a.rows, 1, cfg.seed, 0);
  const serve::SetupKey key{serve::fingerprint_of(p.a), serve::setup_options_hash(opt)};

  std::vector<double> setup_s, solve_ms;
  std::vector<value_t> first_x;
  std::shared_ptr<SchurSolver> solver;
  if (cfg.smoke) count = 1;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < count; ++round) {
    solver.reset();
    const Clock::time_point t0 = Clock::now();
    solver = build_solver(p, opt);
    setup_s.push_back(seconds_since(t0));
    std::vector<value_t> x(b.size(), 0.0);
    solver->solve(b, x);
    check_column(run.result, p.a, b, x);
    if (first_x.empty()) {
      first_x = std::move(x);
    } else if (!bitwise_equal(x, first_x)) {
      ++run.result.failed;
    }

    serve::SolveService svc;
    if (!svc.cache().insert(std::make_shared<serve::CachedSetup>(key, solver))) {
      throw InvariantError("the service cache refused the workload's set-up");
    }
    const RequestMaker hit = [&](long long) {
      const auto k = static_cast<std::uint64_t>(run.served.replies);
      return ServedRequest{
          request_for(run.primary, opt,
                      random_rhs(p.a.rows, 1, cfg.seed, kStreamServed + k)),
          RequestKind::Hit};
    };
    SchurSolver::SolveContext ctx;
    solver->prepare_context(ctx);
    for (int k = 0; k < (cfg.smoke ? 1 : kMinSolvesPerRound) ||
                    seconds_since(start) < seconds * (round + 1) / count;
         ++k) {
      solve_ms.push_back(1e3 * solve_fresh(cfg, run, *solver, ctx, solve_ms.size()));
      run.served += serve_closed_loop(svc, hit, 0.0, 1);  // one request
    }
  }
  run.primary_stats = solver->stats();
  const double mem_mb = static_cast<double>(solver->memory_bytes()) / 1e6;
  add_end_to_end(run, median(setup_s), std::move(solve_ms), mem_mb);
  return run;
}

/// serve-mix traffic: of every 100 requests the last is cold and every
/// 20th other one a refactor — 95 hits, 4 refactors, 1 cold — spaced
/// evenly, so every run meets the same write pressure throughout. Smoke
/// runs use 10 requests: 8 hits, 1 refactor, 1 cold.
constexpr long long kMixBlock = 100;
constexpr long long kMixRefactorEvery = 20;

RequestKind mix_kind(bool smoke, long long i) {
  const long long block = smoke ? 10 : kMixBlock;
  const long long every = smoke ? 5 : kMixRefactorEvery;
  if (i % block == block - 1) return RequestKind::Cold;
  if (i % every == every - 1) return RequestKind::Refactor;
  return RequestKind::Hit;
}

/// Copy of `a` with every diagonal entry scaled by `factor`: same pattern,
/// new values, so the service must redo factor() on the cached partition.
CsrMatrix shift_diagonal(const CsrMatrix& a, double factor) {
  CsrMatrix s = a;
  for (index_t i = 0; i < s.rows; ++i) {
    for (index_t q = s.row_ptr[i]; q < s.row_ptr[i + 1]; ++q) {
      if (s.col_idx[q] == i) s.values[q] *= factor;
    }
  }
  return s;
}

// serve-mix: three hot classes behind one service, warmed before timing;
// reads (hits), writes (refactors) and cold patterns in fixed proportion.
WorkloadRun serve_mix(const Config& cfg, double seconds) {
  struct HotClass {
    const char* name;
    double scale;
  };
  const HotClass hot[] = {
      {"tdr190k", workload_scale(cfg)},
      {"G3_circuit", cfg.smoke ? kSmokeScale : 0.5},
      {"matrix211", cfg.smoke ? kSmokeScale : 0.25},
  };
  // Cold requests are new G3_circuit meshes: the generator's seed decides
  // which links are open, so every cold request has a pattern of its own.
  const HotClass cold_class = hot[1];
  constexpr std::size_t kClasses = std::size(hot);

  WorkloadRun run;
  run.primary_opt = bench_options();
  std::vector<std::shared_ptr<const GeneratedProblem>> problems;
  for (const HotClass& c : hot) problems.push_back(generate(c.name, c.scale, kSystemSeed));
  run.primary = problems[0];
  const SolverOptions& opt = run.primary_opt;

  // The default service, but a cache of 128 MB rather than 512 MB: about
  // twice the hot set, so refactored and cold entries evict each other
  // within seconds and the process stays small and steady.
  serve::ServiceConfig svc_cfg;
  svc_cfg.cache.capacity_bytes = std::size_t{128} << 20;
  // Warm-ups: each on an empty service, so each is a real cold fill.
  std::unique_ptr<serve::SolveService> svc;
  std::vector<double> warmup_s;
  for (int rep = 0; rep < (cfg.smoke ? 1 : 3); ++rep) {
    svc.reset();
    svc = std::make_unique<serve::SolveService>(svc_cfg);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t c = 0; c < kClasses; ++c) {
      const std::shared_ptr<const GeneratedProblem>& p = problems[c];
      std::vector<value_t> b = random_rhs(p->a.rows, 1, cfg.seed, kStreamWarmup + c);
      const serve::SolveResponse resp = svc->solve(request_for(p, opt, b));
      ++run.result.attempted;
      if (resp.status != serve::ServeStatus::Ok ||
          !(relative_residual(p->a, b, resp.x) <= kResidualBound)) {
        ++run.result.failed;
      }
    }
    warmup_s.push_back(seconds_since(t0));
  }
  const double mem_mb = static_cast<double>(svc->cache().stats().bytes) / 1e6;
  const serve::SetupKey primary_key{serve::fingerprint_of(run.primary->a),
                                    serve::setup_options_hash(opt)};
  const std::shared_ptr<serve::CachedSetup> primary = svc->cache().find(primary_key);
  if (!primary) throw InvariantError("the warm-up left a hot class uncached");
  run.primary_stats = primary->solver().stats();

  const RequestMaker make = [&](long long i) {
    const std::uint64_t stream = kStreamMixRequest + static_cast<std::uint64_t>(i);
    const RequestKind kind = mix_kind(cfg.smoke, i);
    // Hits and refactors cycle through the classes in turn.
    const long long turn = kind == RequestKind::Refactor ? i / kMixRefactorEvery : i;
    std::shared_ptr<const GeneratedProblem> p =
        problems[static_cast<std::size_t>(turn % static_cast<long long>(kClasses))];
    if (kind == RequestKind::Refactor) {
      auto shifted = std::make_shared<GeneratedProblem>(*p);
      Rng rng = stream_rng(cfg.seed, stream);
      shifted->a = shift_diagonal(p->a, 1.0 + 1e-3 * (1.0 + rng.uniform()));
      p = std::move(shifted);
    } else if (kind == RequestKind::Cold) {
      p = generate(cold_class.name, cold_class.scale, stream);
    }
    return ServedRequest{
        request_for(p, opt, random_rhs(p->a.rows, 1, cfg.seed, stream)), kind};
  };
  run.served = serve_closed_loop(*svc, make, seconds, kMixClients);
  run.solve_wall_s = run.served.wall_s;
  run.solve_cpu_s = run.served.cpu_s;
  if (run.served.cold == 0) {
    throw InvariantError("the run was too short to send a cold request");
  }
  add_end_to_end(run, median(warmup_s), run.served.hit_ms_per_rhs, mem_mb);
  return run;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"cold-cavity", "cold-circuit", "warm-krylov", "serve-mix"};
}

double workload_scale(const Config& cfg) {
  if (cfg.smoke) return kSmokeScale;
  if (cfg.workload == "cold-circuit") return 2.0;
  if (cfg.workload == "serve-mix") return 0.3;
  if (cfg.workload == "warm-krylov") return 0.4;
  // cold-cavity. At 0.7 about one right-hand side in fifteen ends between
  // 1e-11 and 2e-11 in true residual (the Schur residual of 1e-12
  // amplified through the interior solves); at 0.8 the worst of a
  // thousand is 3e-13.
  return 0.8;
}

WorkloadRun run_workload(const Config& cfg, double seconds) {
  WorkloadRun run;
  if (cfg.workload == "cold-cavity") {
    // The paper's main family (tdr190k analogue). Its set-up splits across
    // LU(S̃), LU(D)+Comp(S) and partition, so any set-up kernel change
    // shows here; single-threaded, the plain baseline. Two set-ups of
    // ~5 s leave about half of the run for solves and requests.
    run = rounds(cfg, seconds, "tdr190k", bench_options(), 2);
    run.headline = "setup_s";
  } else if (cfg.workload == "cold-circuit") {
    // The G3_circuit analogue, ~4 nnz/row. Partitioning is most of its
    // set-up and LU(S̃) is milliseconds: the control on which LU(S̃) work
    // must change nothing while partition work shows.
    run = rounds(cfg, seconds, "G3_circuit", bench_options(), 3);
    run.headline = "setup_s";
  } else if (cfg.workload == "warm-krylov") {
    // A smaller tdr190k with a sparser S̃ (drop_s 1e-3): GMRES takes ~16
    // iterations per right-hand side against ~4 on the cold workloads, and
    // the set-ups take a quarter of the run, so operator apply,
    // preconditioner apply and orthogonalization do most of the work.
    SolverOptions opt = bench_options();
    opt.assembly.drop_s = 1e-3;
    run = rounds(cfg, seconds, "tdr190k", opt, 3);
    run.headline = "solve_min_ms_per_rhs";
  } else if (cfg.workload == "serve-mix") {
    // The hit path through batching and the cache, under write pressure
    // from refactors and cold set-ups.
    run = serve_mix(cfg, seconds);
    run.headline = "served_min_ms";
  } else {
    throw std::invalid_argument("unknown workload: " + cfg.workload);
  }
  return run;
}

}  // namespace pdslin::benchmark
