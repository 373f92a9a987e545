// Thread-pool unit tests: task completion, exception propagation, reuse
// across thousands of submits (no thread leak), and STAIR_THREADS sizing.
// This suite also runs under the ThreadSanitizer CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace stair {
namespace {

// Kernel threads of this process as the OS sees them (linux /proc); 0 if
// unreadable. Lets the leak test check the process, not just pool internals.
std::size_t os_thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  return 0;
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(counts.size(), [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ZeroWorkerPoolDegradesToSerial) {
  ThreadPool pool(1);  // caller-only
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.concurrency(), 1u);
  std::vector<int> hits(64, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, EmptyBatchIsANoOp) {
  ThreadPool pool(4);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not run"; });
  EXPECT_EQ(pool.batches_run(), 0u);
}

TEST(ThreadPool, CountSmallerThanConcurrency) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> counts(3);
  pool.parallel_for(counts.size(), [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, MaxParticipantsCapsButCompletes) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> counts(100);
  pool.parallel_for(
      counts.size(), [&](std::size_t i) { counts[i].fetch_add(1); },
      /*max_participants=*/2);
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);

  // The pool must still work after a failed batch.
  std::atomic<int> ok{0};
  pool.parallel_for(50, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 50);
}

TEST(ThreadPool, ThousandsOfSubmitsReuseTheSameWorkers) {
  ThreadPool pool(4);
  const std::size_t before_os = os_thread_count();
  const std::size_t workers = pool.size();

  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 2000; ++round)
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });

  EXPECT_EQ(total.load(), 16000u);
  EXPECT_EQ(pool.size(), workers);  // worker set is fixed at construction
  EXPECT_EQ(pool.batches_run(), 2000u);
  EXPECT_EQ(pool.indices_run(), 16000u);
  if (before_os != 0) {
    // No thread leak: the process thread count must not have grown with the
    // number of submits (tolerate unrelated runtime threads +/- a couple).
    EXPECT_LE(os_thread_count(), before_os + 2);
  }
}

TEST(ThreadPool, ConcurrentExternalSubmitters) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  auto submitter = [&] {
    for (int round = 0; round < 200; ++round)
      pool.parallel_for(16, [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  };
  std::thread a(submitter), b(submitter);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2u * 200u * 16u);
}

TEST(ThreadPool, ResolveConcurrencyRule) {
  EXPECT_EQ(ThreadPool::resolve_concurrency("3", 8), 3u);
  EXPECT_EQ(ThreadPool::resolve_concurrency("1", 8), 1u);
  EXPECT_EQ(ThreadPool::resolve_concurrency(nullptr, 8), 8u);
  EXPECT_EQ(ThreadPool::resolve_concurrency(nullptr, 0), 1u);  // hw unknown
  EXPECT_EQ(ThreadPool::resolve_concurrency("0", 8), 8u);      // non-positive: fall back
  EXPECT_EQ(ThreadPool::resolve_concurrency("-2", 8), 8u);
  EXPECT_EQ(ThreadPool::resolve_concurrency("garbage", 8), 8u);
  EXPECT_EQ(ThreadPool::resolve_concurrency("12x", 8), 8u);    // trailing junk
  EXPECT_EQ(ThreadPool::resolve_concurrency("999999", 8), 1024u);  // clamped
}

TEST(ThreadPool, StairThreadsOverridesAutoSizing) {
  ::setenv("STAIR_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_concurrency(), 3u);
  ThreadPool pool;  // auto-sized: reads the override at construction
  EXPECT_EQ(pool.concurrency(), 3u);
  EXPECT_EQ(pool.size(), 2u);
  ::unsetenv("STAIR_THREADS");
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);
}

TEST(ThreadPool, DefaultPoolIsASingleton) {
  ThreadPool& a = ThreadPool::default_pool();
  ThreadPool& b = ThreadPool::default_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.concurrency(), 1u);
}

TEST(ThreadPool, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 500;
  std::atomic<std::size_t> ran{0};
  std::size_t done = 0;  // guarded by mu
  std::mutex mu;
  std::condition_variable cv;
  for (std::size_t i = 0; i < kTasks; ++i) {
    pool.submit([&] {
      ran.fetch_add(1);
      // Counted and notified under `mu`: the waiter can only see the last
      // count after this unlock, so the cv is never destroyed under a
      // notify that has not returned.
      std::lock_guard<std::mutex> lock(mu);
      if (++done == kTasks) cv.notify_all();
    });
  }
  {
    // Scoped to the wait: the spin below must not hold `mu`, or a task
    // still queued for it could never return and bump tasks_run.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == kTasks; });
  }
  EXPECT_EQ(ran.load(), kTasks);
  // The pool's stat is bumped after the task body returns, so it can trail
  // the in-task counter by the tasks still unwinding.
  while (pool.tasks_run() < kTasks) std::this_thread::yield();
  EXPECT_EQ(pool.tasks_run(), kTasks);
}

TEST(ThreadPool, SubmitOnZeroWorkerPoolRunsInline) {
  ThreadPool pool(1);  // caller-only: no workers to hand the task to
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);  // ran before submit returned
  EXPECT_EQ(pool.tasks_run(), 1u);
}

TEST(ThreadPool, SubmitAndParallelForInterleave) {
  ThreadPool pool(4);
  std::atomic<std::size_t> task_runs{0};
  for (int round = 0; round < 50; ++round) {
    pool.submit([&] { task_runs.fetch_add(1); });
    std::atomic<std::size_t> indices{0};
    pool.parallel_for(16, [&](std::size_t) { indices.fetch_add(1); });
    EXPECT_EQ(indices.load(), 16u);
  }
  // Queued tasks are drained by destruction (workers finish the queue).
  while (pool.tasks_run() < 50) std::this_thread::yield();
  EXPECT_EQ(task_runs.load(), 50u);
}

}  // namespace
}  // namespace stair
