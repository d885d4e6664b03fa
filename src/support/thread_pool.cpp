#include "support/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>

#include "support/error.hpp"

namespace proof {

struct ThreadPool::Queue {
  std::mutex mu;
  std::deque<std::function<void()>> tasks;
};

ThreadPool::ThreadPool(unsigned jobs) : jobs_(jobs == 0 ? 1 : jobs) {
  const unsigned workers = jobs_ - 1;
  queues_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  {
    // Pairing the notify with the lock closes the race against a worker that
    // checked `stop_` just before blocking on the condition variable.
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  sleep_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::enqueue(std::function<void()> fn) {
  if (queues_.empty()) {
    fn();  // serial pool: run inline
    return;
  }
  const size_t slot = next_queue_.fetch_add(1) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[slot]->mu);
    queues_[slot]->tasks.push_back(std::move(fn));
  }
  {
    // Pairing the increment + notify with the lock closes the lost-wakeup
    // race against a worker that evaluated the wait predicate (pending_ == 0)
    // but has not yet blocked on the condition variable.
    std::lock_guard<std::mutex> lock(sleep_mu_);
    pending_.fetch_add(1);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::pop_task(size_t preferred, std::function<void()>& out) {
  const size_t n = queues_.size();
  // Own queue first (LIFO for locality), then steal FIFO from the others.
  for (size_t attempt = 0; attempt < n; ++attempt) {
    Queue& q = *queues_[(preferred + attempt) % n];
    std::lock_guard<std::mutex> lock(q.mu);
    if (q.tasks.empty()) {
      continue;
    }
    if (attempt == 0) {
      out = std::move(q.tasks.back());
      q.tasks.pop_back();
    } else {
      out = std::move(q.tasks.front());
      q.tasks.pop_front();
    }
    pending_.fetch_sub(1);
    return true;
  }
  return false;
}

bool ThreadPool::try_run_one() {
  if (queues_.empty() || pending_.load() == 0) {
    return false;
  }
  std::function<void()> task;
  if (!pop_task(next_queue_.load() % queues_.size(), task)) {
    return false;
  }
  task();
  return true;
}

void ThreadPool::worker_loop(size_t self) {
  while (true) {
    std::function<void()> task;
    if (pop_task(self, task)) {
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleep_cv_.wait(lock, [this] { return stop_.load() || pending_.load() > 0; });
    if (stop_.load() && pending_.load() == 0) {
      return;
    }
  }
}

void ThreadPool::parallel_for(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) {
    return;
  }
  if (queues_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }

  // Shared iteration counter; every participant (caller + helpers) loops
  // grabbing the next index.  The caller always participates, so progress is
  // guaranteed even when every worker is stuck in outer-level tasks.
  struct Shared {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::atomic<bool> abort{false};
    std::mutex error_mu;
    std::exception_ptr error;
    size_t n;
    const std::function<void(size_t)>* body;
  };
  auto shared = std::make_shared<Shared>();
  shared->n = n;
  shared->body = &body;

  const auto drain = [](const std::shared_ptr<Shared>& s) {
    size_t i;
    while ((i = s->next.fetch_add(1)) < s->n) {
      if (s->abort.load()) {
        s->done.fetch_add(1);
        continue;  // count skipped iterations so the caller can leave
      }
      try {
        (*s->body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(s->error_mu);
        if (!s->error) {
          s->error = std::current_exception();
        }
        s->abort.store(true);
      }
      s->done.fetch_add(1);
    }
  };

  const size_t helpers = std::min<size_t>(workers_.size(), n - 1);
  for (size_t h = 0; h < helpers; ++h) {
    enqueue([shared, drain] { drain(shared); });
  }
  drain(shared);
  while (shared->done.load() < shared->n) {
    // Helpers may still be mid-iteration (or not yet started if the pool is
    // saturated by outer tasks); help drain unrelated work meanwhile.  Sleep
    // rather than spin when there is nothing to steal — on machines with
    // fewer cores than jobs a hot wait loop starves the very helpers it is
    // waiting for.
    if (!try_run_one()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  if (shared->error) {
    std::rethrow_exception(shared->error);
  }
}

namespace {

std::mutex g_global_mu;
std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool>* slot = new std::unique_ptr<ThreadPool>();
  return *slot;
}

}  // namespace

unsigned ThreadPool::default_jobs() {
  if (const char* env = std::getenv("PROOF_JOBS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 0) {
      return parsed < 1 ? 1u : static_cast<unsigned>(parsed);
    }
    throw ConfigError("PROOF_JOBS must be a non-negative integer, got '" +
                      std::string(env) + "'");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (!global_slot()) {
    global_slot() = std::make_unique<ThreadPool>(default_jobs());
  }
  return *global_slot();
}

void ThreadPool::set_global_jobs(unsigned jobs) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  global_slot() =
      std::make_unique<ThreadPool>(jobs == 0 ? default_jobs() : jobs);
}

}  // namespace proof
