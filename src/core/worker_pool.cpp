#include "pcss/core/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace pcss::core {

int resolve_threads(int threads) {
  if (threads > 0) return threads;
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  return hardware > 0 ? hardware : 1;
}

WorkerPool::WorkerPool(int threads) {
  for (int t = 0; t < threads; ++t) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    queue_.clear();
  }
  cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void WorkerPool::submit(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void WorkerPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void WorkerPool::run(std::size_t jobs, const std::function<void(std::size_t)>& fn) {
  if (threads_.empty() || jobs <= 1) {
    for (std::size_t i = 0; i < jobs; ++i) fn(i);
    return;
  }
  // One round: the caller and up to jobs-1 helper jobs claim indices from
  // a shared counter. The round lives on this frame, so the caller waits
  // for every helper it queued, including ones that start after the last
  // index was claimed and find nothing left to do.
  struct Round {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    // GUARDS: error, helpers (a helper's exit hand-off to the caller)
    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr error;
    std::size_t helpers = 0;
  } round;
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = round.next.fetch_add(1);
      if (i >= jobs) return;
      if (round.failed.load(std::memory_order_relaxed)) continue;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(round.mutex);
        if (!round.error) round.error = std::current_exception();
        round.failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  round.helpers = std::min(threads_.size(), jobs - 1);
  for (std::size_t h = round.helpers; h > 0; --h) {
    submit([&] {
      drain();
      // Notify under the lock: once the caller sees zero it returns and
      // destroys the round.
      const std::lock_guard<std::mutex> lock(round.mutex);
      if (--round.helpers == 0) round.done.notify_all();
    });
  }
  drain();
  std::unique_lock<std::mutex> lock(round.mutex);
  round.done.wait(lock, [&] { return round.helpers == 0; });
  if (round.error) std::rethrow_exception(round.error);
}

}  // namespace pcss::core
