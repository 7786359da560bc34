#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pcss::core {

/// The worker count a thread-count knob asks for: `threads` when positive,
/// otherwise one per hardware thread (at least 1).
int resolve_threads(int threads);

/// The one worker pool of pcss: long-lived threads that run queued jobs.
/// AttackEngine::run_batch fans its clouds out on one, run_shared runs one
/// round per optimization step on one, and runner::run_spec queues every
/// uncached cloud of a spec on one. The threads persist for the pool's
/// lifetime, so each worker's thread-local tensor buffer pool stays warm
/// across jobs instead of being rebuilt from malloc. Jobs are independent:
/// scheduling affects only timing, never values.
class WorkerPool {
 public:
  /// Starts `threads` worker threads; with none, run() executes inline and
  /// submitted jobs never run.
  explicit WorkerPool(int threads);
  /// Discards queued jobs that have not started, waits for the running
  /// ones, and joins the threads. Whatever a running job references must
  /// therefore outlive the pool.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Queues `job` for the next free worker and returns at once, first in
  /// first out. The job must report its own failures: an exception that
  /// escapes it terminates the process.
  void submit(std::function<void()> job);

  /// Runs fn(0..jobs-1) on the workers and the calling thread and returns
  /// once every index has finished. The first exception is rethrown here;
  /// indices not yet started when it was thrown are skipped.
  void run(std::size_t jobs, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> threads_;  // pcss-lint: allow(C001) — this IS the WorkerPool
  // GUARDS: queue_, stop_ (the job hand-off between submit and the workers)
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace pcss::core
