#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "iterative/bicgstab.hpp"
#include "iterative/gmres.hpp"
#include "iterative/operators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace pdslin::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

obs::Histogram& latency_histogram() {
  static const double bounds[] = {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
                                  0.1,  0.3,  1.0,  3.0,  10.0};
  return obs::histogram("serve.request.latency_seconds", bounds);
}

SolveResponse make_rejected(const char* why) {
  SolveResponse r;
  r.status = ServeStatus::Rejected;
  r.detail = why;
  return r;
}

/// Plain unpreconditioned Krylov on A — ladder steps 2/3. Overwrites the
/// x, columns and status of `resp` and adds its wall time to solve_seconds.
void fallback_solve(const SolveRequest& req, SolveResponse& resp) {
  PDSLIN_SPAN("serve.fallback");
  WallTimer timer;
  const auto n = static_cast<std::size_t>(req.a->rows);
  resp.x.assign(n * static_cast<std::size_t>(req.nrhs), 0.0);
  resp.columns.clear();
  resp.columns.reserve(req.nrhs);
  const MatrixOperator op(*req.a);
  bool all_converged = true;
  for (index_t j = 0; j < req.nrhs; ++j) {
    const std::span<const value_t> b(req.b.data() + j * n, n);
    const std::span<value_t> x(resp.x.data() + j * n, n);
    GmresResult col;
    if (req.opt.krylov == KrylovMethod::Bicgstab) {
      const BicgstabResult br =
          bicgstab(op, nullptr, b, x, req.opt.bicgstab);
      col.iterations = br.iterations;
      col.relative_residual = br.relative_residual;
      col.converged = br.converged;
    } else {
      col = gmres(op, nullptr, b, x, req.opt.gmres);
    }
    all_converged = all_converged && col.converged;
    resp.columns.push_back(col);
  }
  resp.status = all_converged ? ServeStatus::Degraded : ServeStatus::Failed;
  resp.solve_seconds += timer.seconds();
}

}  // namespace

const char* to_string(ServeStatus s) {
  switch (s) {
    case ServeStatus::Ok: return "ok";
    case ServeStatus::Degraded: return "degraded";
    case ServeStatus::Timeout: return "timeout";
    case ServeStatus::Rejected: return "rejected";
    case ServeStatus::Failed: return "failed";
  }
  return "unknown";
}

SolveService::SolveService(ServiceConfig cfg)
    : cfg_(cfg), cache_(cfg.cache) {
  PDSLIN_CHECK_MSG(cfg_.queue_capacity >= 1, "queue_capacity must be >= 1");
  if (cfg_.workers == 0) cfg_.workers = 1;
}

SolveService::~SolveService() { stop(); }

void SolveService::stop() {
  // Drain contract (pinned by ServeService.StopDrainsQueuedDeterministically):
  // submit() under the same lock sees stopping_ first and rejects. A task
  // ends only with the queue empty, and a build hands its parked requests
  // back to the queue before its task ends, so running_ == 0 means every
  // accepted request has been answered.
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  cv_idle_.wait(lock, [&] { return running_ == 0; });
}

std::future<SolveResponse> SolveService::submit(SolveRequest req) {
  std::promise<SolveResponse> promise;
  std::future<SolveResponse> fut = promise.get_future();

  // The request check runs outside the lock, before the fingerprint: a
  // malformed request fails immediately and never reaches a pool task.
  try {
    if (!req.a) throw Error("invalid request: no matrix");
    check_request_matrix(*req.a);
    if (req.incidence && req.incidence->rows > 0) {
      check_request_incidence(*req.incidence, req.a->cols);
    }
    if (req.nrhs < 1 ||
        req.b.size() != static_cast<std::size_t>(req.a->rows) *
                            static_cast<std::size_t>(req.nrhs)) {
      throw Error("invalid request: b is not n x nrhs");
    }
    check_request_rhs(req.b);
  } catch (const Error& e) {
    SolveResponse r;
    r.status = ServeStatus::Failed;
    r.detail = e.what();
    promise.set_value(std::move(r));
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.completed;
    ++stats_.failed;
    return fut;
  }
  PendingRequest pr;
  pr.key = SetupKey{fingerprint_of(*req.a), setup_options_hash(req.opt)};
  pr.incidence = incidence_hash_of(req.incidence.get());
  pr.req = std::move(req);
  pr.promise = std::move(promise);
  pr.enqueued = Clock::now();

  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    pr.promise.set_value(make_rejected("service stopping"));
    ++stats_.rejected;
    obs::counter("serve.requests.rejected").add();
    return fut;
  }
  if (queue_.size() + parked_ >= cfg_.queue_capacity) {
    pr.promise.set_value(make_rejected("queue full"));
    ++stats_.rejected;
    obs::counter("serve.requests.rejected").add();
    return fut;
  }
  queue_.push_back(std::move(pr));
  ++stats_.accepted;
  obs::counter("serve.requests.accepted").add();
  if (running_ < cfg_.workers) {
    ++running_;
    start_front_locked();
  }
  return fut;
}

SolveResponse SolveService::solve(SolveRequest req) {
  return submit(std::move(req)).get();
}

ServiceStats SolveService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SolveService::start_front_locked() {
  auto pr = std::make_shared<PendingRequest>(std::move(queue_.front()));
  queue_.pop_front();
  // Detached pool task: must not throw — answer() catches everything.
  ThreadPool::shared().submit([this, pr] { run(*pr); });
}

void SolveService::run(PendingRequest& pr) {
  answer(pr);
  // Hand the slot to the next queued request as a fresh task: a task that
  // runs nested inside another request's pool wait then answers one
  // request, not the whole queue. Notify under the lock: once running_
  // hits 0 outside it, stop() may return and destroy cv_idle_ first.
  std::lock_guard<std::mutex> lock(mu_);
  if (!queue_.empty()) {
    start_front_locked();
  } else if (--running_ == 0) {
    cv_idle_.notify_all();
  }
}

void SolveService::hand_off(const SetupKey& key,
                            std::shared_ptr<const BuildOutcome> outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = builds_.find(key);
  std::vector<PendingRequest>& parked = it->second.parked;
  parked_ -= parked.size();
  for (auto p = parked.rbegin(); p != parked.rend(); ++p) {
    p->handoff = outcome;
    queue_.push_front(std::move(*p));
  }
  builds_.erase(it);
  // Slots the parked requests gave back answer them in parallel.
  while (running_ < cfg_.workers && !queue_.empty()) {
    ++running_;
    start_front_locked();
  }
}

std::shared_ptr<CachedSetup> SolveService::build(const PendingRequest& pr,
                                                 SolveResponse& resp) {
  PDSLIN_SPAN("serve.setup");
  WallTimer timer;
  std::shared_ptr<CachedSetup> setup;
  try {
    auto solver = std::make_shared<SchurSolver>(*pr.req.a, pr.req.opt);
    std::shared_ptr<const DbbdPartition> part;
    if (cfg_.enable_cache) part = cache_.find_partition(pr.key);
    if (part && part->incidence_hash != pr.incidence) part.reset();
    if (part) {
      solver->adopt_partition(*part);
    } else {
      const CsrMatrix* inc = pr.req.incidence && pr.req.incidence->rows > 0
                                 ? pr.req.incidence.get()
                                 : nullptr;
      solver->setup(inc);
    }
    solver->factor();
    setup = std::make_shared<CachedSetup>(
        pr.key, std::shared_ptr<const SchurSolver>(solver));
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.setups_built;
    }
    if (cfg_.enable_cache) cache_.insert(setup);
    resp.symbolic_reuse = part != nullptr;
  } catch (const std::exception& e) {
    resp.detail = std::string("setup failed (") + e.what() +
                  ") — fell back to unpreconditioned Krylov on A";
    setup.reset();
  } catch (...) {
    resp.detail = "setup failed — fell back to unpreconditioned Krylov on A";
    setup.reset();
  }
  resp.setup_seconds = timer.seconds();
  return setup;
}

void SolveService::answer(PendingRequest& pr) {
  PDSLIN_SPAN("serve.request");
  SolveResponse resp;
  resp.queue_seconds = seconds_since(pr.enqueued);
  if (pr.req.timeout_seconds > 0.0 &&
      resp.queue_seconds > pr.req.timeout_seconds) {
    resp.status = ServeStatus::Timeout;
    resp.detail = "deadline exceeded in queue";
    respond(pr, std::move(resp));
    return;
  }
  resp.batch_width = static_cast<int>(pr.req.nrhs);
  try {
    std::shared_ptr<CachedSetup> setup;
    if (pr.handoff) {
      // Parked behind another request's build of this key: answered from
      // that build, as a full hit.
      setup = pr.handoff->setup;
      resp.detail = pr.handoff->detail;
      resp.cache_hit = setup != nullptr;
    } else {
      bool claimed = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.batches;
        stats_.batched_nrhs += pr.req.nrhs;
        if (cfg_.enable_cache) {
          // Look up and claim under the lock the hand-off takes: a build
          // inserts its entry before it releases its claim, so a request
          // meets the entry or the claim of any build of its key, and
          // builds only when it meets neither. An entry or a build
          // partitioned on another incidence does not answer it: it then
          // builds for itself, beside that build when one is in flight.
          setup = cache_.find(pr.key);
          if (setup &&
              setup->solver().partition().incidence_hash != pr.incidence) {
            setup.reset();
          }
          if (!setup) {
            auto [claim, fresh] = builds_.try_emplace(pr.key);
            if (fresh) {
              claim->second.incidence = pr.incidence;
              claimed = true;
            } else if (claim->second.incidence == pr.incidence) {
              claim->second.parked.push_back(std::move(pr));
              ++parked_;
              return;
            }
          }
        }
      }
      resp.cache_hit = setup != nullptr;
      if (!setup) {
        setup = build(pr, resp);
        if (claimed) {
          hand_off(pr.key, std::make_shared<const BuildOutcome>(
                               BuildOutcome{setup, resp.detail}));
        }
      }
    }

    if (!setup) {
      // Ladder step 2: plain Krylov on A; detail holds the build's failure.
      fallback_solve(pr.req, resp);
      respond(pr, std::move(resp));
      return;
    }

    // --- one multi-RHS solve over the request's own columns ---
    const auto n = static_cast<std::size_t>(pr.req.a->rows);
    resp.x.assign(n * static_cast<std::size_t>(pr.req.nrhs), 0.0);
    WallTimer solve_timer;
    auto ctx = setup->take_context();
    resp.columns =
        setup->solver().solve_multi(pr.req.b, resp.x, pr.req.nrhs, *ctx);
    setup->return_context(std::move(ctx));
    resp.solve_seconds = solve_timer.seconds();

    const bool converged =
        std::all_of(resp.columns.begin(), resp.columns.end(),
                    [](const GmresResult& c) { return c.converged; });
    if (converged) {
      resp.status = ServeStatus::Ok;
    } else {
      // Ladder step 3: the hybrid answer is not trusted. It stays the best
      // effort if the fallback does not converge either.
      std::vector<value_t> hybrid_x = resp.x;
      std::vector<GmresResult> hybrid_columns = resp.columns;
      fallback_solve(pr.req, resp);
      if (resp.status == ServeStatus::Degraded) {
        resp.detail =
            "hybrid solve did not converge — unpreconditioned fallback";
      } else {
        resp.x = std::move(hybrid_x);
        resp.columns = std::move(hybrid_columns);
        resp.detail = "hybrid and fallback solves both failed to converge";
      }
    }
    respond(pr, std::move(resp));
  } catch (const std::exception& e) {
    SolveResponse r;
    r.status = ServeStatus::Failed;
    r.detail = std::string("internal error: ") + e.what();
    respond(pr, std::move(r));
  } catch (...) {
    SolveResponse r;
    r.status = ServeStatus::Failed;
    r.detail = "internal error";
    respond(pr, std::move(r));
  }
}

void SolveService::respond(PendingRequest& pr, SolveResponse&& resp) {
  latency_histogram().observe(seconds_since(pr.enqueued));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.completed;
    switch (resp.status) {
      case ServeStatus::Ok: ++stats_.ok; break;
      case ServeStatus::Degraded: ++stats_.degraded; break;
      case ServeStatus::Timeout: ++stats_.timeouts; break;
      case ServeStatus::Failed: ++stats_.failed; break;
      case ServeStatus::Rejected: ++stats_.rejected; break;
    }
  }
  obs::counter(std::string("serve.requests.") + to_string(resp.status)).add();
  try {
    pr.promise.set_value(std::move(resp));
  } catch (const std::future_error&) {
    // already satisfied — ignore
  }
}

}  // namespace pdslin::serve
