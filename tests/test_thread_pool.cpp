#include "util/thread_pool.hpp"

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ldla {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.run_tasks(hits.size(),
                 [&](std::size_t t) { hits[t].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  ThreadPool pool(2);
  pool.run_tasks(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, SingleThreadPoolStillRunsTasks) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.run_tasks(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, SizeReportsWorkerCount) {
  // The caller participates, so a pool of N spawns N-1 workers.
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 3u);
  ThreadPool solo(1);
  EXPECT_EQ(solo.size(), 0u);
}

TEST(ThreadPool, RunSplitCoversRange) {
  // threads 0 counts as 1, and a team larger than n shrinks to n ranges;
  // one range runs inline on the caller.
  struct Case {
    std::size_t n;
    unsigned threads;
    std::size_t parts;
  };
  const std::thread::id caller = std::this_thread::get_id();
  for (const Case c : {Case{240, 3, 3}, Case{240, 1, 1}, Case{240, 0, 1},
                       Case{5, 8, 5}}) {
    std::mutex mu;
    std::set<std::size_t> seen;
    std::size_t calls = 0;
    run_split(c.n, c.threads, [&](Range r) {
      std::lock_guard lock(mu);
      ++calls;
      EXPECT_FALSE(r.empty());
      if (c.parts == 1) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
      }
      for (std::size_t i = r.begin; i < r.end; ++i) {
        EXPECT_TRUE(seen.insert(i).second) << "index " << i << " visited twice";
      }
    });
    EXPECT_EQ(calls, c.parts) << "n " << c.n << " threads " << c.threads;
    EXPECT_EQ(seen.size(), c.n);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), c.n - 1);
  }
}

TEST(ThreadPool, RunSplitEmptyRange) {
  run_split(0, 4, [](Range) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ResultsAreDeterministicAcrossRuns) {
  // Summing into per-task slots then reducing must not depend on timing.
  ThreadPool pool(4);
  for (int run = 0; run < 5; ++run) {
    std::vector<long> partial(64, 0);
    pool.run_tasks(partial.size(), [&](std::size_t t) {
      partial[t] = static_cast<long>(t * t);
    });
    long total = std::accumulate(partial.begin(), partial.end(), 0L);
    EXPECT_EQ(total, 85344L);  // sum of t^2 for t in [0, 64)
  }
}

TEST(ThreadPool, SequentialBatchesReuseWorkers) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int round = 0; round < 20; ++round) {
    pool.run_tasks(8, [&](std::size_t) { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 160);
}

TEST(GlobalPool, IsUsableAndStable) {
  ThreadPool& a = global_pool();
  ThreadPool& b = global_pool();
  EXPECT_EQ(&a, &b);
  std::atomic<int> count{0};
  a.run_tasks(4, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

}  // namespace
}  // namespace ldla
