// Nesting-safe thread pool: the one executed level of the paper's
// hierarchy.
//
// PDSLin assigns a *group* of processors to each subdomain (§II, §V). This
// reproduction runs the paper's §V configuration, one worker per subdomain:
// SolverOptions::threads subdomain tasks run concurrently in factor() and in
// every solve sweep, and the partition recursion spawns its subtrees on the
// same pool. Work inside one subdomain is serial; the intra-subdomain level
// is modeled (parallel/cost_model.hpp), not executed, because its regions
// (a few ms each) gained nothing on a 4-vCPU host (docs/ALGORITHMS.md §7).
// TaskGroup::wait *helps execute* queued tasks instead of blocking, so
// nested groups — the partition recursion's subtrees, a served request's
// subdomain tasks inside its own pool task — cannot deadlock, even on a
// single-thread pool (the waiter drains the queue itself). On a single-core
// host everything degrades to serial execution with identical results; the
// benchmark drivers additionally report the *modeled* parallel time
// max_ℓ(per-subdomain work), the quantity the paper's §V study measures.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pdslin {

class TaskGroup;

class ThreadPool {
 public:
  /// threads == 0 → hardware_concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a detached task; wait_idle() blocks until every enqueued task
  /// (detached or grouped) has finished. A detached task must not throw.
  void submit(std::function<void()> task);
  /// Wait until the pool has no queued or running tasks. The calling thread
  /// helps execute queued tasks while it waits (nesting-safe).
  void wait_idle();

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Process-wide pool for the subdomain tasks and the partition
  /// recursion. Sized on first use to PDSLIN_POOL_THREADS if set
  /// (benches / CI), else hardware_concurrency.
  /// Correctness never depends on its size: callers waiting on a TaskGroup
  /// execute queued tasks themselves.
  static ThreadPool& shared();

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group;  // nullptr → detached submit()
  };

  void worker_loop();
  /// Pop and run one queued task. Requires `lock` held on mutex_; drops it
  /// while the task runs and reacquires before returning. `helping` marks
  /// tasks executed by a waiter (help-first) rather than a pool worker.
  void run_one(std::unique_lock<std::mutex>& lock, bool helping = false);

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;  // workers: queue non-empty or stop
  std::condition_variable cv_done_;  // waiters: a task finished or new work to help with
  unsigned in_flight_ = 0;           // queued + running, all tasks
  bool stop_ = false;
};

/// A set of tasks that can be waited on together. wait() rethrows the first
/// exception recorded by a failed task (the others complete or are skipped by
/// the caller's own cancellation flag, if any) and leaves the group reusable.
///
/// Nesting: a task running on the pool may create its own TaskGroup on the
/// *same* pool and wait on it — wait() executes queued tasks (of any group)
/// while the group is unfinished, so progress is guaranteed with any number
/// of workers, including one.
class TaskGroup {
 public:
  /// Bind to a pool; defaults to the process-wide shared pool.
  explicit TaskGroup(ThreadPool& pool = ThreadPool::shared()) : pool_(pool) {}
  /// Waits for stragglers; any stored exception is swallowed (call wait()
  /// yourself to observe failures).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void run(std::function<void()> fn);
  void wait();

 private:
  friend class ThreadPool;

  ThreadPool& pool_;
  unsigned pending_ = 0;        // guarded by pool_.mutex_
  std::exception_ptr error_;    // first failure, guarded by pool_.mutex_
};

/// Run body(i) for i in [0, count) on the pool (blocking; the calling thread
/// helps). Exceptions from tasks propagate: exactly one — the first recorded
/// — is rethrown, remaining iterations are skipped on a best-effort basis,
/// and the pool stays reusable.
///
/// max_tasks == 0 → one task per index (fine-grained, dynamic balance).
/// max_tasks == t → at most t contiguous chunks, bounding this loop's
/// concurrency to t regardless of pool size (SolverOptions::threads).
void parallel_for(ThreadPool& pool, int count, const std::function<void(int)>& body,
                  unsigned max_tasks = 0);

/// Split [0, count) into at most `workers` contiguous ranges and run
/// body(range_index, begin, end) for each concurrently. range_index < workers
/// identifies the range, so callers can give each range its own scratch
/// state. Serial (no pool traffic) when workers <= 1 or count <= 1.
void parallel_ranges(ThreadPool& pool, long long count, unsigned workers,
                     const std::function<void(unsigned, long long, long long)>& body);

}  // namespace pdslin
