#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pdslin {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::shared() {
  // PDSLIN_POOL_THREADS overrides the hardware_concurrency default —
  // benches and CI use it to pin the worker count independently of the
  // host (correctness never depends on the size; see the header).
  static ThreadPool pool([] {
    if (const char* env = std::getenv("PDSLIN_POOL_THREADS")) {
      const int v = std::atoi(env);
      if (v >= 1) return static_cast<unsigned>(v);
    }
    return 0u;
  }());
  return pool;
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back({std::move(task), nullptr});
    ++in_flight_;
  }
  cv_task_.notify_one();
  cv_done_.notify_all();  // waiters may want to help with the new task
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (in_flight_ > 0) {
    if (!queue_.empty()) {
      run_one(lock, /*helping=*/true);
    } else {
      cv_done_.wait(lock, [this] { return in_flight_ == 0 || !queue_.empty(); });
    }
  }
}

void ThreadPool::run_one(std::unique_lock<std::mutex>& lock, bool helping) {
  // Cached registry lookups: steady-state cost is one relaxed fetch_add.
  static obs::Counter& tasks_executed = obs::counter("pool.tasks_executed");
  static obs::Counter& tasks_stolen = obs::counter("pool.tasks_stolen");
  Task task = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  (helping ? tasks_stolen : tasks_executed).add();
  std::exception_ptr err;
  try {
    PDSLIN_SPAN("pool.task");
    task.fn();
  } catch (...) {
    err = std::current_exception();
  }
  if (err && task.group == nullptr) {
    // A detached task has nowhere to report: same fate as an exception
    // escaping a plain worker thread.
    std::terminate();
  }
  lock.lock();
  --in_flight_;
  if (task.group != nullptr) {
    --task.group->pending_;
    if (err && !task.group->error_) task.group->error_ = err;
  }
  cv_done_.notify_all();
}

void ThreadPool::worker_loop() {
  obs::label_this_thread("pool-worker");
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_ && queue_.empty()) return;
    run_one(lock);
  }
}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // Destructor must not throw; failures are observable via wait().
  }
}

void TaskGroup::run(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(pool_.mutex_);
    pool_.queue_.push_back({std::move(fn), this});
    ++pool_.in_flight_;
    ++pending_;
  }
  pool_.cv_task_.notify_one();
  pool_.cv_done_.notify_all();
}

void TaskGroup::wait() {
  std::unique_lock<std::mutex> lock(pool_.mutex_);
  while (pending_ > 0) {
    if (!pool_.queue_.empty()) {
      // Help-first: execute *some* queued task (not necessarily ours). Work
      // we run either is ours or unblocks the worker that is running ours.
      pool_.run_one(lock, /*helping=*/true);
    } else {
      pool_.cv_done_.wait(
          lock, [this] { return pending_ == 0 || !pool_.queue_.empty(); });
    }
  }
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void parallel_for(ThreadPool& pool, int count, const std::function<void(int)>& body,
                  unsigned max_tasks) {
  if (count <= 0) return;
  // Best-effort cancellation: once a task throws, the rest become no-ops so
  // the first exception surfaces quickly.
  std::atomic<bool> failed{false};
  auto guarded = [&](int i) {
    if (failed.load(std::memory_order_relaxed)) return;
    try {
      body(i);
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      throw;
    }
  };
  TaskGroup group(pool);
  if (max_tasks == 0 || max_tasks >= static_cast<unsigned>(count)) {
    for (int i = 0; i < count; ++i) {
      group.run([&guarded, i] { guarded(i); });
    }
  } else {
    const auto chunks = static_cast<int>(max_tasks);
    for (int c = 0; c < chunks; ++c) {
      const int begin = static_cast<int>((static_cast<long long>(count) * c) / chunks);
      const int end = static_cast<int>((static_cast<long long>(count) * (c + 1)) / chunks);
      if (begin == end) continue;
      group.run([&guarded, &failed, begin, end] {
        for (int i = begin; i < end; ++i) {
          if (failed.load(std::memory_order_relaxed)) return;
          guarded(i);
        }
      });
    }
  }
  group.wait();
}

void parallel_ranges(ThreadPool& pool, long long count, unsigned workers,
                     const std::function<void(unsigned, long long, long long)>& body) {
  if (count <= 0) return;
  workers = std::max<unsigned>(
      1u, static_cast<unsigned>(
              std::min<long long>(workers, count)));
  if (workers == 1) {
    body(0, 0, count);
    return;
  }
  TaskGroup group(pool);
  for (unsigned w = 0; w < workers; ++w) {
    const long long begin = (count * w) / workers;
    const long long end = (count * (w + 1)) / workers;
    if (begin == end) continue;
    group.run([&body, w, begin, end] { body(w, begin, end); });
  }
  group.wait();
}

}  // namespace pdslin
