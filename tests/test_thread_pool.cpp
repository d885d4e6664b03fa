// Unit tests: the work-stealing thread pool (support/thread_pool.hpp) —
// serial degradation, ordering, exception propagation, nested parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace proof {
namespace {

TEST(ThreadPool, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.jobs(), 1u);
  EXPECT_EQ(pool.worker_count(), 0u);
  // Serial pools run every iteration on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on;
  pool.parallel_for(3, [&](size_t) { ran_on.push_back(std::this_thread::get_id()); });
  EXPECT_EQ(ran_on, std::vector<std::thread::id>(3, caller));
}

TEST(ThreadPool, ZeroJobsClampsToSerial) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.jobs(), 1u);
  EXPECT_EQ(pool.worker_count(), 0u);
  std::vector<int> order;
  pool.parallel_for(4, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 3u);
  constexpr size_t kN = 500;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for(kN, [&](size_t i) { counts[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroAndOneIterations) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelMapKeepsSlotOrder) {
  ThreadPool pool(4);
  const std::vector<int> out =
      pool.parallel_map(100, [](size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ThreadPool, ParallelForPropagatesException) {
  for (const unsigned jobs : {1u, 4u}) {
    ThreadPool pool(jobs);
    EXPECT_THROW(
        pool.parallel_for(64,
                          [&](size_t i) {
                            if (i == 13) {
                              throw std::runtime_error("boom at 13");
                            }
                          }),
        std::runtime_error)
        << "jobs=" << jobs;
    // The pool survives the failed loop and keeps working.
    std::atomic<int> done{0};
    pool.parallel_for(8, [&](size_t) { done.fetch_add(1); });
    EXPECT_EQ(done.load(), 8);
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](size_t) {
    pool.parallel_for(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, DefaultJobsReadsEnvironment) {
  const char* saved = std::getenv("PROOF_JOBS");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::setenv("PROOF_JOBS", "3", 1);
  EXPECT_EQ(ThreadPool::default_jobs(), 3u);
  ::setenv("PROOF_JOBS", "0", 1);
  EXPECT_EQ(ThreadPool::default_jobs(), 1u);  // clamped to >= 1
  ::setenv("PROOF_JOBS", "not-a-number", 1);
  EXPECT_THROW((void)ThreadPool::default_jobs(), ConfigError);

  if (saved != nullptr) {
    ::setenv("PROOF_JOBS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("PROOF_JOBS");
  }
  EXPECT_GE(ThreadPool::default_jobs(), 1u);
}

TEST(ThreadPool, SetGlobalJobsReplacesThePool) {
  ThreadPool::set_global_jobs(2);
  EXPECT_EQ(ThreadPool::global().jobs(), 2u);
  ThreadPool::set_global_jobs(1);
  EXPECT_EQ(ThreadPool::global().jobs(), 1u);
  ThreadPool::set_global_jobs(0);  // back to the default
  EXPECT_EQ(ThreadPool::global().jobs(), ThreadPool::default_jobs());
}

}  // namespace
}  // namespace proof
