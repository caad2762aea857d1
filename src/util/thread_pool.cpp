#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>

#include "util/contract.hpp"
#include "util/cpu_info.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace ldla {

namespace {

// Submission deques beyond the worker count, so many concurrent external
// callers still find a free slot before degrading to inline execution.
constexpr std::size_t kExtraSubmissions = 16;

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] == '1' && v[1] == '\0';
}

}  // namespace

unsigned default_thread_count() {
  if (const char* v = std::getenv("LDLA_THREADS")) {
    const long n = std::strtol(v, nullptr, 10);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = default_thread_count();
  // The caller participates in run_tasks, so spawn one fewer worker.
  const unsigned spawned = threads - 1;
  pin_workers_ = env_flag("LDLA_AFFINITY");
  submissions_ = std::vector<Submission>(spawned + kExtraSubmissions);
  workers_.reserve(spawned);
  for (unsigned i = 0; i < spawned; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

// Execute one task node and retire it against its set. Exceptions are
// captured here so nothing escapes a worker thread; completion is signalled
// under the set's own mutex so the set (on the caller's stack) cannot be
// destroyed between the decrement and the notify.
void ThreadPool::run_node(TaskNode* node) {
  LDLA_TRACE_TASK_DEQUEUED(node->enqueued_ns);
  std::exception_ptr error;
  try {
    LDLA_TRACE_SPAN(kTaskRun);
    LDLA_TRACE_ADD_TASK_RUN();
    (*node->set->fn)(node->index);
  } catch (...) {
    error = std::current_exception();
  }
  TaskSet& set = *node->set;
  MutexLock lock(set.m);
  if (error && !set.first_error) set.first_error = std::move(error);
  LDLA_ASSERT(set.remaining > 0);
  if (--set.remaining == 0) set.done.notify_all();
}

// One FIFO sweep over every submission deque; counts failed probes only for
// deques that looked non-empty (an empty registry slot is not a steal
// attempt worth attributing).
ThreadPool::TaskNode* ThreadPool::try_steal_any() noexcept {
  for (Submission& sub : submissions_) {
    if (sub.deque.empty_hint()) continue;
    TaskNode* node = nullptr;
    if (sub.deque.steal(node)) {
      LDLA_TRACE_ADD_STEAL();
      return node;
    }
    LDLA_TRACE_ADD_FAILED_STEAL();
  }
  return nullptr;
}

void ThreadPool::worker_loop(unsigned worker_index) {
  if (pin_workers_) {
    // Round-robin over logical cores, leaving core 0 to the caller thread.
    pin_current_thread_to_core(worker_index + 1);
  }
  for (;;) {
    if (TaskNode* node = try_steal_any()) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      run_node(node);
      continue;
    }
    MutexLock lock(mutex_);
    if (stop_) return;
    if (pending_.load(std::memory_order_relaxed) > 0) continue;  // re-sweep
    LDLA_TRACE_ADD_PARK();
    // Manual predicate loop (not the lambda overload) so the guarded reads
    // of stop_ stay inside this function's analyzed lock scope.
    while (!stop_ && pending_.load(std::memory_order_relaxed) == 0) {
      cv_work_.wait(lock);
    }
    if (stop_) return;
  }
}

void ThreadPool::run_tasks(std::size_t tasks,
                           const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return;
  const auto run_inline = [&fn](std::size_t count) {
    // Inline execution, with the same drain-then-rethrow semantics as the
    // pooled path: every task runs even if an earlier one throws, and the
    // first exception is rethrown afterwards.
    std::exception_ptr first_error;
    for (std::size_t t = 0; t < count; ++t) {
      try {
        LDLA_TRACE_SPAN(kTaskRun);
        LDLA_TRACE_ADD_TASK_RUN();
        fn(t);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  };
  if (tasks == 1 || workers_.empty()) {
    run_inline(tasks);
    return;
  }

  // Claim a submission deque; a fully-claimed registry means the pool is
  // saturated with callers already, so running inline is both correct and
  // reasonable.
  Submission* sub = nullptr;
  for (Submission& candidate : submissions_) {
    if (!candidate.in_use.exchange(true, std::memory_order_acquire)) {
      sub = &candidate;
      break;
    }
  }
  if (sub == nullptr) {
    run_inline(tasks);
    return;
  }

  // Every call gets a private set, so concurrent run_tasks calls on the
  // same pool interleave safely: workers only touch the set their node
  // belongs to. `set`, `nodes` and `fn` outlive the tasks because this
  // function does not return before `remaining` hits zero.
  TaskSet set(fn, tasks);
  std::vector<TaskNode> nodes(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    nodes[t].set = &set;
    nodes[t].index = t;
  }

  // Publish tasks 0 .. tasks-2; the caller runs the last slice directly
  // (no queue stamp — it never waits in a deque). The deque grows on
  // demand, so every node lands in it.
  const std::size_t pushed = tasks - 1;
  for (std::size_t t = 0; t + 1 < tasks; ++t) {
    // The enqueue stamp rides in the node so the executor can attribute
    // queue latency (dequeue time minus stamp) to the task-wait phase.
    nodes[t].enqueued_ns = LDLA_TRACE_QUEUE_STAMP();
    sub->deque.push(&nodes[t]);
  }
  pending_.fetch_add(pushed, std::memory_order_relaxed);
  LDLA_METRICS_ONLY(
      static metrics::Gauge& g_depth = metrics::gauge(
          "ldla_pool_queue_depth",
          "task nodes resident in submission deques");
      g_depth.set(static_cast<std::uint64_t>(
          pending_.load(std::memory_order_relaxed)));)
  {
    // Empty critical section: pairs with the worker's predicate check so
    // a worker between "saw pending == 0" and "blocked" cannot miss the
    // notify.
    MutexLock lock(mutex_);
  }
  cv_work_.notify_all();

  // Caller's own slice first, then help drain the published work LIFO from
  // the bottom; workers steal FIFO from the top, so contention only meets
  // in the middle.
  run_node(&nodes[tasks - 1]);
  TaskNode* node = nullptr;
  while (sub->deque.pop(node)) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    run_node(node);
  }

  // Barrier: wait for stolen in-flight tasks, then release the deque slot
  // (it is empty — every node was popped or stolen exactly once). The
  // captured exception is read under the same lock that guards it.
  std::exception_ptr first_error;
  {
    MutexLock lock(set.m);
    LDLA_TRACE_ADD_BARRIER_WAIT();
    if (set.remaining > 0) {
      LDLA_TRACE_SPAN(kBarrier);
      while (set.remaining > 0) set.done.wait(lock);
    }
    first_error = set.first_error;
  }
  sub->in_use.store(false, std::memory_order_release);
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

void run_split(std::size_t n, unsigned threads,
               const std::function<void(Range)>& fn) {
  if (n == 0) return;
  const std::size_t team = std::min<std::size_t>(std::max(threads, 1u), n);
  if (team == 1) {
    fn(Range{0, n});
    return;
  }
  const std::vector<Range> ranges = split_uniform(n, team);
  global_pool().run_tasks(ranges.size(),
                          [&](std::size_t t) { fn(ranges[t]); });
}

}  // namespace ldla
