// Stress and exception-safety tests for ThreadPool, written to be run
// under TSan (cmake --preset tsan): concurrent callers share one pool, so
// any completion-tracking state that leaks across task groups shows up as a
// race or a lost wakeup here.

#include "util/thread_pool.hpp"

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/contract.hpp"

namespace ldla {
namespace {

TEST(ThreadPoolStress, ConcurrentCallersShareOnePool) {
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 8;
  constexpr std::size_t kRounds = 50;
  constexpr std::size_t kTasks = 16;

  std::atomic<std::size_t> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &total] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        pool.run_tasks(kTasks, [&total](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * kRounds * kTasks);
}

TEST(ThreadPoolStress, ConcurrentRunSplitCoversEveryRange) {
  // run_split forks onto global_pool(), so concurrent callers share it.
  constexpr std::size_t kCallers = 6;
  constexpr std::size_t kN = 1000;

  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kN);
  }
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&hits, c] {
      run_split(kN, 3, [&hits, c](Range r) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          hits[c][i].fetch_add(1, std::memory_order_relaxed);
        }
      });
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[c][i].load(), 1)
          << "caller " << c << " index " << i;
    }
  }
}

TEST(ThreadPoolStress, GlobalPoolHandlesConcurrentCallers) {
  constexpr std::size_t kCallers = 4;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&total] {
      for (int r = 0; r < 20; ++r) {
        global_pool().run_tasks(8, [&total](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * 20u * 8u);
}

TEST(ThreadPoolStress, TaskExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run_tasks(32,
                     [](std::size_t t) {
                       if (t == 7) throw std::runtime_error("task 7 failed");
                     }),
      std::runtime_error);
}

TEST(ThreadPoolStress, CallerSliceExceptionPropagates) {
  // The caller runs task index tasks-1 itself; a throw there must follow the
  // same capture-drain-rethrow path, not unwind past the in-flight batch.
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.run_tasks(8,
                              [&completed](std::size_t t) {
                                if (t == 7) throw std::runtime_error("caller");
                                completed.fetch_add(1);
                              }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 7);
}

TEST(ThreadPoolStress, AllTasksFinishBeforeRethrow) {
  // run_tasks must drain the whole group before rethrowing, so references
  // captured by the tasks are dead by the time the caller's scope unwinds.
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.run_tasks(64,
                              [&finished](std::size_t t) {
                                if (t % 16 == 3) {
                                  throw std::runtime_error("boom");
                                }
                                finished.fetch_add(1);
                              }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 60);  // 64 tasks, 4 throwers
}

TEST(ThreadPoolStress, PoolIsReusableAfterException) {
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    EXPECT_THROW(pool.run_tasks(8,
                                [](std::size_t t) {
                                  if (t == 0) throw std::logic_error("round");
                                }),
                 std::logic_error);
    std::atomic<int> ok{0};
    pool.run_tasks(8, [&ok](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 8);
  }
}

TEST(ThreadPoolStress, RunSplitPropagatesExceptions) {
  EXPECT_THROW(run_split(100, 4,
                         [](Range r) {
                           if (r.begin == 0) {
                             throw std::runtime_error("range 0");
                           }
                         }),
               std::runtime_error);
  // and the pool stays usable
  std::atomic<int> n{0};
  run_split(100, 4, [&n](Range r) {
    n.fetch_add(static_cast<int>(r.size()));
  });
  EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPoolStress, ConcurrentCallersWithMixedOutcomes) {
  // Half the callers throw, half succeed, all on the same pool at once; a
  // failure in one group must never bleed into another.
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 8;
  std::atomic<std::size_t> succeeded{0};
  std::atomic<std::size_t> threw{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &succeeded, &threw, c] {
      for (int r = 0; r < 25; ++r) {
        try {
          pool.run_tasks(8, [c](std::size_t t) {
            if (c % 2 == 0 && t == 4) {
              throw std::runtime_error("caller " + std::to_string(c));
            }
          });
          succeeded.fetch_add(1);
        } catch (const std::runtime_error&) {
          threw.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(threw.load(), 4u * 25u);
  EXPECT_EQ(succeeded.load(), 4u * 25u);
}

TEST(ThreadPoolStress, ExceptionMessageSurvivesPropagation) {
  ThreadPool pool(2);
  try {
    pool.run_tasks(4, [](std::size_t t) {
      if (t == 1) throw std::runtime_error("distinctive message 42");
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "distinctive message 42");
  }
}

TEST(ThreadPoolStress, SingleThreadPoolPropagatesExceptions) {
  // With zero workers everything runs on the caller; the exception path must
  // behave identically.
  ThreadPool pool(1);
  std::atomic<int> done{0};
  EXPECT_THROW(pool.run_tasks(5,
                              [&done](std::size_t t) {
                                if (t == 2) throw std::runtime_error("solo");
                                done.fetch_add(1);
                              }),
               std::runtime_error);
  EXPECT_EQ(done.load(), 4);
}

TEST(ThreadPoolStress, ManySmallBatchesFromManyCallers) {
  // Lots of tiny groups maximize contention on the shared queue/cv — the
  // classic lost-wakeup shaker for fork-join pools.
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 8;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &total] {
      for (int r = 0; r < 200; ++r) {
        pool.run_tasks(2, [&total](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * 200u * 2u);
}

}  // namespace
}  // namespace ldla
