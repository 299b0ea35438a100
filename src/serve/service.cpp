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
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace pdslin::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

obs::Histogram& batch_width_histogram() {
  static const double bounds[] = {1, 2, 4, 8, 16, 32, 64};
  return obs::histogram("serve.batch.width", bounds);
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

}  // namespace

SolveService::SolveService(ServiceConfig cfg)
    : cfg_(cfg), cache_(cfg.cache), adapt_(cfg.adapt) {
  PDSLIN_CHECK_MSG(cfg_.queue_capacity >= 1, "queue_capacity must be >= 1");
  if (cfg_.workers == 0) cfg_.workers = 1;
  dispatcher_ = std::thread([this] {
    obs::label_this_thread("serve-dispatch");
    dispatch_loop();
  });
}

SolveService::~SolveService() { stop(); }

void SolveService::stop() {
  // Drain contract (pinned by ServeService.StopDrainsQueuedRequests):
  // reject-new (submit() under the same lock sees stopping_ first), then
  // finish-queued — the dispatcher keeps forming batches until the queue is
  // empty, and we wait for every in-flight batch. Exactly one caller joins
  // the dispatcher; concurrent callers (the destructor racing an explicit
  // stop() on another thread) block until the drain is complete instead of
  // double-joining the thread.
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    cv_slot_.wait(lock, [&] { return joined_; });
    return;
  }
  stopping_ = true;
  lock.unlock();
  cv_queue_.notify_all();
  dispatcher_.join();
  // The dispatcher drained the queue; wait for in-flight batches.
  lock.lock();
  cv_slot_.wait(lock, [&] { return active_batches_ == 0; });
  joined_ = true;
  cv_slot_.notify_all();
}

std::future<SolveResponse> SolveService::submit(SolveRequest req) {
  std::promise<SolveResponse> promise;
  std::future<SolveResponse> fut = promise.get_future();

  // Validate outside the lock; a malformed request fails immediately
  // rather than poisoning a batch.
  if (!req.a || req.a->rows != req.a->cols || !req.a->has_values() ||
      req.nrhs < 1 ||
      req.b.size() != static_cast<std::size_t>(req.a ? req.a->rows : 0) *
                          static_cast<std::size_t>(req.nrhs)) {
    SolveResponse r;
    r.status = ServeStatus::Failed;
    r.detail = "invalid request: need a square valued matrix and an n x nrhs b";
    promise.set_value(std::move(r));
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.completed;
    ++stats_.failed;
    return fut;
  }
  PendingRequest pr;
  pr.key = SetupKey{fingerprint_of(*req.a), setup_options_hash(req.opt)};
  pr.req = std::move(req);
  pr.promise = std::move(promise);
  pr.enqueued = Clock::now();

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      pr.promise.set_value(make_rejected("service stopping"));
      ++stats_.rejected;
      obs::counter("serve.requests.rejected").add();
      return fut;
    }
    if (queue_.size() >= cfg_.queue_capacity) {
      pr.promise.set_value(make_rejected("queue full"));
      ++stats_.rejected;
      obs::counter("serve.requests.rejected").add();
      return fut;
    }
    queue_.push_back(std::move(pr));
    ++stats_.accepted;
    obs::counter("serve.requests.accepted").add();
  }
  cv_queue_.notify_all();
  return fut;
}

SolveResponse SolveService::solve(SolveRequest req) {
  return submit(std::move(req)).get();
}

ServiceStats SolveService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SolveService::dispatch_loop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_queue_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    // Claim a worker slot before forming the batch: while all slots are
    // busy, same-key requests pile up behind the front and leave as one
    // wide batch — load adaptivity for free. With a slot free, the batch is
    // whatever same-key work is queued now; nothing waits for stragglers.
    cv_slot_.wait(lock, [&] { return active_batches_ < cfg_.workers; });
    if (queue_.empty()) continue;

    BatcherConfig bcfg = cfg_.batcher;
    if (!cfg_.enable_batching) bcfg.max_batch_nrhs = queue_.front().req.nrhs;
    Batch batch = take_batch(queue_, bcfg);

    // Enforce queue deadlines at dispatch (a running solve is never
    // preempted; the ladder's Timeout is a queue-time contract). Responses
    // go out after the lock drops — respond() takes mu_ itself.
    std::vector<PendingRequest> timed_out;
    {
      std::vector<PendingRequest> live;
      live.reserve(batch.requests.size());
      for (PendingRequest& pr : batch.requests) {
        const double waited = seconds_since(pr.enqueued);
        if (pr.req.timeout_seconds > 0.0 && waited > pr.req.timeout_seconds) {
          timed_out.push_back(std::move(pr));
        } else {
          live.push_back(std::move(pr));
        }
      }
      batch.requests = std::move(live);
    }

    const bool dispatch = !batch.requests.empty();
    if (dispatch) {
      ++active_batches_;
      stats_.batches += 1;
      stats_.batched_requests += static_cast<long long>(batch.requests.size());
      stats_.batched_nrhs += batch.total_nrhs();
      batch_width_histogram().observe(static_cast<double>(batch.total_nrhs()));
      obs::counter("serve.batches").add();
    }
    lock.unlock();

    for (PendingRequest& pr : timed_out) {
      SolveResponse r;
      r.status = ServeStatus::Timeout;
      r.queue_seconds = seconds_since(pr.enqueued);
      r.detail = "deadline exceeded in queue";
      respond(pr, std::move(r));
    }
    if (!dispatch) continue;  // slot never claimed

    // Detached pool task: must not throw — execute_batch catches
    // everything and answers each member with a structured status.
    auto shared = std::make_shared<Batch>(std::move(batch));
    ThreadPool::shared().submit([this, shared] {
      execute_batch(*shared);
      // Notify under the lock: once active_batches_ hits 0 outside it,
      // stop() may return and destroy cv_slot_ before a late notify.
      std::lock_guard<std::mutex> relock(mu_);
      --active_batches_;
      cv_slot_.notify_all();
    });
  }
}

SolveResponse SolveService::fallback_solve(const SolveRequest& req) const {
  PDSLIN_SPAN("serve.fallback");
  SolveResponse resp;
  const auto n = static_cast<std::size_t>(req.a->rows);
  resp.x.assign(n * static_cast<std::size_t>(req.nrhs), 0.0);
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
  return resp;
}

void SolveService::execute_batch(Batch& batch) {
  PDSLIN_SPAN("serve.batch");
  try {
    const SolveRequest& proto = batch.requests.front().req;
    const auto n = static_cast<std::size_t>(proto.a->rows);
    const index_t total = batch.total_nrhs();

    // Queue time ends when execution starts; fix it per request now so the
    // reported split is queue vs. setup vs. solve.
    std::vector<double> queue_seconds;
    queue_seconds.reserve(batch.requests.size());
    for (const PendingRequest& pr : batch.requests) {
      queue_seconds.push_back(seconds_since(pr.enqueued));
    }

    // --- adaptive σ: which drop tolerance should this class build with? ---
    // The tuned σ never enters the cache key (fingerprint exclusion: one
    // matrix class, one entry); it changes what the entry is *built* with.
    const double sigma =
        adapt_.tuned_sigma(batch.key, proto.opt.assembly.drop_s);

    // --- setup: cache ladder ---
    std::shared_ptr<CachedSetup> setup;
    bool cache_hit = false;
    bool symbolic = false;
    double setup_seconds = 0.0;
    std::string degrade_detail;
    if (cfg_.enable_cache) {
      setup = cache_.find(batch.key);
      cache_hit = setup != nullptr;
    }
    if (setup && setup->solver().options().assembly.drop_s != sigma) {
      // The controller moved σ since this entry was built: rebuild at the
      // tuned value. The cached partition makes this a symbolic-cost
      // rebuild, and insert() replaces the stale entry under the same key.
      setup.reset();
      cache_hit = false;
      adapt_.note_rebuild();
    }
    if (!setup) {
      WallTimer setup_timer;
      try {
        PDSLIN_SPAN("serve.setup");
        SolverOptions build_opt = proto.opt;
        build_opt.assembly.drop_s = sigma;
        auto solver = std::make_shared<SchurSolver>(*proto.a, build_opt);
        std::shared_ptr<const DbbdPartition> part;
        if (cfg_.enable_cache) part = cache_.find_partition(batch.key);
        if (part) {
          solver->adopt_partition(*part);
          symbolic = true;
        } else {
          const CsrMatrix* inc =
              proto.incidence && proto.incidence->rows > 0
                  ? proto.incidence.get()
                  : nullptr;
          const std::span<const double> coords =
              proto.coords ? std::span<const double>(*proto.coords)
                           : std::span<const double>{};
          solver->setup(inc, coords);
        }
        solver->factor();
        setup = std::make_shared<CachedSetup>(
            batch.key, std::shared_ptr<const SchurSolver>(solver));
        setup_seconds = setup_timer.seconds();
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.setups_built;
        }
        if (cfg_.enable_cache) cache_.insert(setup);
      } catch (const std::exception& e) {
        degrade_detail = std::string("setup failed (") + e.what() +
                         ") — fell back to unpreconditioned Krylov on A";
        setup.reset();
      }
    }

    if (!setup) {
      // Ladder step 2: the whole batch degrades to plain Krylov.
      for (std::size_t i = 0; i < batch.requests.size(); ++i) {
        PendingRequest& pr = batch.requests[i];
        SolveResponse resp = fallback_solve(pr.req);
        resp.detail = degrade_detail;
        resp.batch_width = total;
        resp.queue_seconds = queue_seconds[i];
        respond(pr, std::move(resp));
      }
      return;
    }

    // --- one coalesced multi-RHS solve ---
    std::vector<value_t> bs(n * static_cast<std::size_t>(total));
    std::vector<value_t> xs(n * static_cast<std::size_t>(total), 0.0);
    std::size_t col = 0;
    for (const PendingRequest& pr : batch.requests) {
      std::copy(pr.req.b.begin(), pr.req.b.end(), bs.begin() + col * n);
      col += static_cast<std::size_t>(pr.req.nrhs);
    }

    WallTimer solve_timer;
    auto ctx = setup->take_context();
    const std::vector<GmresResult> cols =
        setup->solver().solve_multi(bs, xs, total, *ctx);
    setup->return_context(std::move(ctx));
    const double solve_seconds = solve_timer.seconds();

    // --- close the adaptation loop on this batch's iteration counts ---
    const double built_sigma = setup->solver().options().assembly.drop_s;
    {
      double iter_sum = 0.0;
      bool batch_converged = true;
      for (const GmresResult& c : cols) {
        iter_sum += c.iterations;
        batch_converged = batch_converged && c.converged;
      }
      adapt_.observe(batch.key,
                     cols.empty()
                         ? 0.0
                         : iter_sum / static_cast<double>(cols.size()),
                     batch_converged);
    }

    // --- split the batch back into per-request responses ---
    col = 0;
    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
      PendingRequest& pr = batch.requests[i];
      const auto w = static_cast<std::size_t>(pr.req.nrhs);
      SolveResponse resp;
      resp.x.assign(xs.begin() + col * n, xs.begin() + (col + w) * n);
      resp.columns.assign(cols.begin() + col, cols.begin() + col + w);
      col += w;
      resp.cache_hit = cache_hit;
      resp.symbolic_reuse = symbolic;
      resp.batch_width = total;
      resp.queue_seconds = queue_seconds[i];
      resp.setup_seconds = setup_seconds;
      resp.solve_seconds = solve_seconds;
      resp.tuned_drop_s = built_sigma;

      const bool converged = std::all_of(
          resp.columns.begin(), resp.columns.end(),
          [](const GmresResult& r) { return r.converged; });
      if (converged) {
        resp.status = ServeStatus::Ok;
      } else {
        // Ladder step 3: this request's hybrid answer is not trusted.
        SolveResponse fb = fallback_solve(pr.req);
        if (fb.status == ServeStatus::Degraded) {
          fb.cache_hit = cache_hit;
          fb.symbolic_reuse = symbolic;
          fb.batch_width = total;
          fb.queue_seconds = resp.queue_seconds;
          fb.setup_seconds = setup_seconds;
          fb.solve_seconds = solve_seconds;
          fb.detail =
              "hybrid solve did not converge — unpreconditioned fallback";
          respond(pr, std::move(fb));
          continue;
        }
        resp.status = ServeStatus::Failed;
        resp.detail = "hybrid and fallback solves both failed to converge";
      }
      respond(pr, std::move(resp));
    }
  } catch (const std::exception& e) {
    for (PendingRequest& pr : batch.requests) {
      SolveResponse resp;
      resp.status = ServeStatus::Failed;
      resp.detail = std::string("internal error: ") + e.what();
      respond(pr, std::move(resp));
    }
  } catch (...) {
    for (PendingRequest& pr : batch.requests) {
      SolveResponse resp;
      resp.status = ServeStatus::Failed;
      resp.detail = "internal error";
      respond(pr, std::move(resp));
    }
  }
}

void SolveService::respond(PendingRequest& pr, SolveResponse&& resp) {
  // A request answered twice (e.g. by the outer catch after a respond()
  // already ran) must not crash the drain loop.
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
