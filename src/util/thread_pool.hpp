// A fixed-size work-stealing worker pool.
//
// Task distribution is BLIS-style fork-join over Chase–Lev deques
// (util/work_steal.hpp): the caller of run_tasks claims a submission deque,
// pushes its task nodes there, and executes its own share LIFO from the
// bottom while parked workers wake and steal FIFO from the top. Stealing
// replaces the old central FIFO queue, so ragged task batches (triangular
// SYRK tails, uneven slabs) rebalance automatically instead of leaving
// workers idle behind a static split.
//
// Concurrency contract (unchanged from the FIFO pool):
//  - run_tasks is safe to call from multiple threads
//    concurrently on the same pool (including global_pool()): every call
//    owns a private task set, so completion tracking never crosses calls.
//  - Exceptions thrown by tasks do not escape worker threads. The first
//    exception (by completion order) is captured, the set is drained to
//    completion, and the exception is rethrown on the calling thread.
//  - run_tasks must not be called from inside a task running on the same
//    pool (the joining caller does not execute other calls' tasks, so
//    nested forks could exhaust the workers and deadlock).
//
// Locking contracts are machine-checked: every mutex-protected member
// carries LDLA_GUARDED_BY (util/annotations.hpp), and the `thread-safety`
// CMake preset fails the build on any access outside its lock.
//
// Environment knobs:
//  - LDLA_THREADS=<n>  default worker-team size when a caller passes 0
//    (both for pool construction and for the parallel LD drivers).
//  - LDLA_AFFINITY=1   pin each spawned worker round-robin to a logical
//    core at pool construction (cpu_info topology; no-op where the
//    scheduler rejects affinity masks).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/partition.hpp"
#include "util/sync.hpp"
#include "util/work_steal.hpp"

namespace ldla {

/// Thread-team size to use when the caller passes 0: $LDLA_THREADS when set
/// to a positive integer, otherwise std::thread::hardware_concurrency()
/// (minimum 1).
unsigned default_thread_count();

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller participates in run_tasks);
  /// 0 means default_thread_count().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Run fn(t) for t in [0, tasks) across the pool and wait for completion.
  /// The calling thread participates, so a pool of size 1 still provides
  /// two-way overlap-free execution with zero queueing overhead.
  /// If any task throws, the first captured exception is rethrown here after
  /// every task of this call has finished.
  void run_tasks(std::size_t tasks, const std::function<void(std::size_t)>& fn)
      LDLA_EXCLUDES(mutex_);

 private:
  // One fork-join batch. `remaining` and `first_error` are guarded by `m`;
  // the caller waits on `done` (notified under `m` so the set can live on
  // the caller's stack).
  struct TaskSet {
    TaskSet(const std::function<void(std::size_t)>& f, std::size_t tasks)
        : fn(&f), remaining(tasks) {}
    const std::function<void(std::size_t)>* fn = nullptr;
    Mutex m;
    CondVar done;
    std::size_t remaining LDLA_GUARDED_BY(m) = 0;
    std::exception_ptr first_error LDLA_GUARDED_BY(m);
  };

  // One deque cell: which set, which task index, and the enqueue stamp for
  // task-wait attribution. Lives in a run_tasks-local vector that outlives
  // execution because the caller does not return before `remaining` is 0.
  struct TaskNode {
    TaskSet* set = nullptr;
    std::size_t index = 0;
    std::uint64_t enqueued_ns = 0;
  };

  // A claimable submission deque. Owner = the run_tasks caller that holds
  // `in_use`; workers only ever steal from it.
  struct Submission {
    std::atomic<bool> in_use{false};
    WorkStealDeque<TaskNode*> deque;
  };

  void worker_loop(unsigned worker_index) LDLA_EXCLUDES(mutex_);
  TaskNode* try_steal_any() noexcept;
  static void run_node(TaskNode* node);

  std::vector<std::thread> workers_;
  // Fixed registry: enough submission deques for heavily concurrent callers;
  // exhaustion degrades to inline execution, never blocks.
  std::vector<Submission> submissions_;
  Mutex mutex_;
  CondVar cv_work_;
  std::atomic<std::size_t> pending_{0};  ///< task nodes resident in deques
  bool stop_ LDLA_GUARDED_BY(mutex_) = false;
  bool pin_workers_ = false;  ///< written once in the ctor, then read-only
};

/// Process-wide pool sized to the machine; created on first use.
ThreadPool& global_pool();

/// Split [0, n) into min(threads, n) uniform ranges (split_uniform) and run
/// fn on each: inline on the caller when that is one range, else as one
/// global_pool() batch. threads 0 counts as 1.
void run_split(std::size_t n, unsigned threads,
               const std::function<void(Range)>& fn);

}  // namespace ldla
