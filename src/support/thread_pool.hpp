// Work-stealing thread pool shared by every sweep-shaped loop.
//
// The analytical path is the hot loop of large profiling campaigns (model x
// batch x precision x clock matrices), so the pool is tuned for coarse,
// CPU-bound, exception-throwing tasks rather than microsecond latency.  Its
// lanes serve the fan-out inside one unit of work (a sweep, an optimize
// round); independent units, such as the serve daemon's requests, run on
// their own threads and fan out through the same pool:
//  * per-worker deques with FIFO stealing; an idle worker steals from its
//    neighbours before sleeping;
//  * `parallel_for` runs the calling thread as one of the workers, so nested
//    parallel sections can never deadlock (a pool of zero workers degrades to
//    plain serial execution);
//  * results keep deterministic ordering: `parallel_map` writes slot `i` from
//    iteration `i`, whatever thread ran it.
//
// Global parallelism is controlled by `--jobs N` on the CLI or the
// `PROOF_JOBS` environment variable; `ThreadPool::global()` is the instance
// every library sweep uses.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace proof {

class ThreadPool {
 public:
  /// `jobs` is the total parallelism including the calling thread: a pool of
  /// `jobs = N` spawns `N - 1` workers.  `jobs <= 1` spawns none and every
  /// operation runs inline on the caller (the degenerate serial pool).
  explicit ThreadPool(unsigned jobs);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (worker threads + the participating caller), >= 1.
  [[nodiscard]] unsigned jobs() const { return jobs_; }

  /// Number of spawned worker threads (jobs() - 1, or 0 for a serial pool).
  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs `body(i)` for every i in [0, n).  The caller participates, workers
  /// steal the rest; returns when all iterations finished.  The first
  /// exception thrown by any iteration is rethrown on the caller after every
  /// in-flight iteration has completed.  Safe to call from inside pool tasks.
  void parallel_for(size_t n, const std::function<void(size_t)>& body);

  /// Ordered parallel map: returns {f(0), f(1), ..., f(n-1)} with result `i`
  /// always in slot `i`, byte-identical to the serial loop.  The result type
  /// must be default-constructible.
  template <typename F, typename T = std::invoke_result_t<F, size_t>>
  std::vector<T> parallel_map(size_t n, F&& fn) {
    std::vector<T> out(n);
    parallel_for(n, [&](size_t i) { out[i] = fn(i); });
    return out;
  }

  // --- global pool -----------------------------------------------------------

  /// The process-wide pool used by every library sweep.  Created on first use
  /// with `default_jobs()` parallelism.
  static ThreadPool& global();

  /// Replaces the global pool (CLI `--jobs N`).  `jobs = 0` resets to
  /// `default_jobs()`.  Not safe while global-pool sweeps are in flight.
  static void set_global_jobs(unsigned jobs);

  /// Parallelism of the global pool without forcing its creation order:
  /// `PROOF_JOBS` when set (clamped to >= 1), else hardware concurrency.
  static unsigned default_jobs();

 private:
  struct Queue;

  void enqueue(std::function<void()> fn);
  /// Steals and runs one pending task; false when every queue is empty.
  bool try_run_one();
  void worker_loop(size_t self);
  bool pop_task(size_t preferred, std::function<void()>& out);

  unsigned jobs_ = 1;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> next_queue_{0};
  std::atomic<size_t> pending_{0};
  std::vector<std::unique_ptr<Queue>> queues_;  // one per worker
  std::vector<std::thread> workers_;

  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
};

}  // namespace proof
