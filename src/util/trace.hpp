// Instrumentation for the popcount-GEMM pipeline: one substrate, one gate.
//
// Everything below is compile-time gated by LDLA_TRACE (CMake option,
// default ON; with it OFF every macro here and LDLA_METRICS_ONLY(...) in
// util/metrics.hpp compile to nothing, so the hot path of an uninstrumented
// build is provably unchanged). At runtime metrics::set_enabled() is the one
// switch: it freezes every counter, gauge and histogram.
//
//  1. Phase counters — bytes packed, slivers freshly packed vs reused from a
//     persistent pack, micro-kernel invocations, popcount words processed,
//     fused count-tiles emitted, epilogue rows converted, thread-pool and
//     nest-chunk steals, shard I/O and prefetch outcomes. Each event is one
//     metrics::Counter in the registry (util/metrics.hpp), named in the
//     counter table in trace.cpp; the LDLA_TRACE_ADD_* macros below are the
//     hot-path sinks (one Counter::add per counted quantity, at cache-tile /
//     driver granularity). snapshot() folds the registry back into
//     PhaseCounters. Counters are exact: tests assert they equal the
//     analytic values implied by the GemmPlan blocking.
//
//  2. RAII spans — phase-attributed wall-time with parent/child self-time
//     accounting (a nested span's duration is subtracted from its parent's
//     phase bucket, so per-phase totals partition wall time instead of
//     double counting). When a session is active every span is also buffered
//     as a Chrome-trace/Perfetto event and written to trace_<run>.json,
//     together with the per-phase self times, the kernel phase's
//     words/second against the scalar popcount peak, and the whole registry
//     (metrics::render_json()) as its "metrics" member.
//
// Concurrency contract: counters/phase times may be written from any number
// of threads concurrently (relaxed atomics). snapshot() may race with
// writers (it reads a consistent-enough relaxed view). session_events() /
// stop_session_and_write() must be called while instrumented work is
// quiesced (after the parallel drivers have joined).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ldla::trace {

/// Pipeline phases a span can attribute time to.
enum class Phase : std::uint8_t {
  kPackA = 0,   ///< packing an A-side (mr-sliver) operand panel
  kPackB,       ///< packing a B-side (nr-sliver) operand panel
  kKernel,      ///< macro-kernel: register-tile loops over packed slivers
  kEpilogue,    ///< count -> statistic conversion (the fused tile sinks)
  kMirror,      ///< lower-to-upper triangle mirroring
  kIo,          ///< file parsing / writing
  kTaskRun,     ///< thread-pool task execution
  kTaskWait,    ///< thread-pool task queue wait (enqueue -> dequeue)
  kBarrier,     ///< fork-join barrier: caller waiting for in-flight tasks
};
inline constexpr std::size_t kPhaseCount = 9;

const char* phase_name(Phase p);

/// Monotonically-increasing event counters (see the header comment for the
/// exact increment semantics; tests pin them to analytic values).
struct PhaseCounters {
  std::uint64_t bytes_packed = 0;    ///< bytes written into packed slivers
  std::uint64_t slivers_packed = 0;  ///< slivers freshly packed
  std::uint64_t slivers_reused = 0;  ///< sliver views served from a persistent pack
  std::uint64_t kernel_calls = 0;    ///< micro-kernel invocations
  std::uint64_t kernel_words = 0;    ///< popcount word-triples processed
  std::uint64_t tiles_emitted = 0;   ///< fused CountTiles handed to sinks
  std::uint64_t epilogue_rows = 0;   ///< fused-epilogue stat rows converted
  std::uint64_t task_runs = 0;       ///< thread-pool tasks executed
  std::uint64_t steals = 0;          ///< pool tasks + nest chunks taken by a non-owner
  std::uint64_t failed_steals = 0;   ///< pool + nest steal probes that lost the race
  std::uint64_t parks = 0;           ///< worker blocks on the idle condition variable
  std::uint64_t barrier_waits = 0;   ///< fork-join caller barriers (pooled run_tasks joins)
  std::uint64_t sparse_ll_tiles = 0;     ///< list×list register-tile kernel calls
  std::uint64_t sparse_ld_tiles = 0;     ///< list×dense register-tile kernel calls
  std::uint64_t list_intersections = 0;  ///< sparse row-pair intersections computed
  std::uint64_t io_bytes_read = 0;     ///< bytes explicitly faulted/read by the shard store
  std::uint64_t prefetch_issued = 0;   ///< shard prefetches initiated ahead of need
  std::uint64_t prefetch_hits = 0;     ///< shard acquisitions served already-materialized
  std::uint64_t prefetch_stalls = 0;   ///< shard acquisitions materialized on the critical path
};

/// The PhaseCounters fields in declaration order as (field name, value)
/// pairs: the keys of the BENCH_*.json "counters" object.
std::vector<std::pair<const char*, std::uint64_t>> counter_fields(
    const PhaseCounters& c);

/// Aggregate view over every thread, suitable for before/after diffing
/// around a workload: `auto d = trace::snapshot().since(before);`.
struct TraceSnapshot {
  PhaseCounters counters;
  /// Per-phase *self* nanoseconds (children subtracted; phases partition
  /// the instrumented wall time).
  std::array<std::uint64_t, kPhaseCount> phase_self_ns{};

  [[nodiscard]] TraceSnapshot since(const TraceSnapshot& earlier) const;
  [[nodiscard]] double phase_seconds(Phase p) const {
    return static_cast<double>(phase_self_ns[static_cast<std::size_t>(p)]) *
           1e-9;
  }
};

/// One buffered span (session mode), in session-relative steady-clock ns.
struct TraceEvent {
  Phase phase = Phase::kKernel;
  std::uint32_t tid = 0;  ///< per-thread slot index (stable for the process)
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Was the instrumentation compiled in (CMake -DLDLA_TRACE=ON)?
constexpr bool compiled() {
#if defined(LDLA_TRACE_ENABLED)
  return true;
#else
  return false;
#endif
}

/// Lock-free aggregate of the registry's phase counters and every thread's
/// phase times. All-zero when the layer is compiled out.
TraceSnapshot snapshot();

/// Begin buffering span events for a Chrome-trace report named `run_name`.
/// The report is written by stop_session_and_write(), or automatically at
/// process exit.
void start_session(const std::string& run_name);
bool session_active();

/// Write trace_<run>.json into $LDLA_TRACE_DIR (default ".") and end the
/// session. Returns the path, or "" when no session was active or the file
/// could not be written. Call with instrumented work quiesced.
std::string stop_session_and_write();

/// End the session discarding all buffered events (tests).
void cancel_session();

/// Copy of all buffered events so far (tests; call quiesced).
std::vector<TraceEvent> session_events();

#if defined(LDLA_TRACE_ENABLED)

namespace detail {

// Hot-path counter sinks: one Counter::add per counted quantity on the
// registry counter the table in trace.cpp names for it. Call at cache-tile /
// driver granularity.
void add_pack(std::uint64_t slivers, std::uint64_t bytes);
void add_reuse(std::uint64_t slivers);
void add_kernel(std::uint64_t calls, std::uint64_t words);
void add_tile();
void add_epilogue_rows(std::uint64_t rows);
void add_task_run();
void add_steal();
void add_failed_steal();
void add_nest_steal();
void add_nest_failed_steal();
void add_park();
void add_barrier_wait();
void add_sparse(std::uint64_t ll_tiles, std::uint64_t ld_tiles,
                std::uint64_t intersections);
void add_io_read(std::uint64_t bytes);
void add_prefetch_issued();
void add_prefetch_hit();
void add_prefetch_stall();

// Thread-pool queue-wait measurement: stamp at enqueue, account the wait at
// dequeue.
std::uint64_t queue_stamp();
void task_dequeued(std::uint64_t enqueue_ns);

}  // namespace detail

/// RAII phase span. Inert when the nesting depth exceeds the fixed stack or
/// the thread overflowed the per-thread slots. Never throws.
class Span {
 public:
  explicit Span(Phase p) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void* slot_ = nullptr;  // armed per-thread slot, null when inert
};

#endif  // LDLA_TRACE_ENABLED

}  // namespace ldla::trace

// Instrumentation macros. With LDLA_TRACE off they expand to expressions
// that evaluate nothing at runtime (the void-casts keep counter-feeding
// locals from tripping -Wunused-but-set-variable) — zero code is emitted.
#if defined(LDLA_TRACE_ENABLED)

#define LDLA_TRACE_CONCAT_IMPL(a, b) a##b
#define LDLA_TRACE_CONCAT(a, b) LDLA_TRACE_CONCAT_IMPL(a, b)

/// Phase span over the enclosing scope; `phase` is a bare enumerator name.
#define LDLA_TRACE_SPAN(phase)                                 \
  ::ldla::trace::Span LDLA_TRACE_CONCAT(ldla_span_,      \
                                        __LINE__)(::ldla::trace::Phase::phase)
/// Same, with a runtime-computed ::ldla::trace::Phase expression.
#define LDLA_TRACE_SPAN_EXPR(phase_expr) \
  ::ldla::trace::Span LDLA_TRACE_CONCAT(ldla_span_, __LINE__)(phase_expr)

#define LDLA_TRACE_ADD_PACK(slivers, bytes) \
  ::ldla::trace::detail::add_pack((slivers), (bytes))
#define LDLA_TRACE_ADD_REUSE(slivers) \
  ::ldla::trace::detail::add_reuse((slivers))
#define LDLA_TRACE_ADD_KERNEL(calls, words) \
  ::ldla::trace::detail::add_kernel((calls), (words))
#define LDLA_TRACE_ADD_TILE() ::ldla::trace::detail::add_tile()
#define LDLA_TRACE_ADD_EPILOGUE_ROWS(rows) \
  ::ldla::trace::detail::add_epilogue_rows((rows))
#define LDLA_TRACE_ADD_TASK_RUN() ::ldla::trace::detail::add_task_run()
#define LDLA_TRACE_ADD_STEAL() ::ldla::trace::detail::add_steal()
#define LDLA_TRACE_ADD_FAILED_STEAL() ::ldla::trace::detail::add_failed_steal()
#define LDLA_TRACE_ADD_NEST_STEAL() ::ldla::trace::detail::add_nest_steal()
#define LDLA_TRACE_ADD_NEST_FAILED_STEAL() \
  ::ldla::trace::detail::add_nest_failed_steal()
#define LDLA_TRACE_ADD_PARK() ::ldla::trace::detail::add_park()
#define LDLA_TRACE_ADD_BARRIER_WAIT() ::ldla::trace::detail::add_barrier_wait()
#define LDLA_TRACE_ADD_SPARSE(ll, ld, inters) \
  ::ldla::trace::detail::add_sparse((ll), (ld), (inters))
#define LDLA_TRACE_ADD_IO_READ(bytes) \
  ::ldla::trace::detail::add_io_read((bytes))
#define LDLA_TRACE_ADD_PREFETCH_ISSUED() \
  ::ldla::trace::detail::add_prefetch_issued()
#define LDLA_TRACE_ADD_PREFETCH_HIT() ::ldla::trace::detail::add_prefetch_hit()
#define LDLA_TRACE_ADD_PREFETCH_STALL() \
  ::ldla::trace::detail::add_prefetch_stall()
#define LDLA_TRACE_QUEUE_STAMP() ::ldla::trace::detail::queue_stamp()
#define LDLA_TRACE_TASK_DEQUEUED(enqueue_ns) \
  ::ldla::trace::detail::task_dequeued((enqueue_ns))

#else  // !LDLA_TRACE_ENABLED

#define LDLA_TRACE_SPAN(phase) ((void)0)
#define LDLA_TRACE_SPAN_EXPR(phase_expr) ((void)(phase_expr))
#define LDLA_TRACE_ADD_PACK(slivers, bytes) ((void)(slivers), (void)(bytes))
#define LDLA_TRACE_ADD_REUSE(slivers) ((void)(slivers))
#define LDLA_TRACE_ADD_KERNEL(calls, words) ((void)(calls), (void)(words))
#define LDLA_TRACE_ADD_TILE() ((void)0)
#define LDLA_TRACE_ADD_EPILOGUE_ROWS(rows) ((void)(rows))
#define LDLA_TRACE_ADD_TASK_RUN() ((void)0)
#define LDLA_TRACE_ADD_STEAL() ((void)0)
#define LDLA_TRACE_ADD_FAILED_STEAL() ((void)0)
#define LDLA_TRACE_ADD_NEST_STEAL() ((void)0)
#define LDLA_TRACE_ADD_NEST_FAILED_STEAL() ((void)0)
#define LDLA_TRACE_ADD_PARK() ((void)0)
#define LDLA_TRACE_ADD_BARRIER_WAIT() ((void)0)
#define LDLA_TRACE_ADD_SPARSE(ll, ld, inters) \
  ((void)(ll), (void)(ld), (void)(inters))
#define LDLA_TRACE_ADD_IO_READ(bytes) ((void)(bytes))
#define LDLA_TRACE_ADD_PREFETCH_ISSUED() ((void)0)
#define LDLA_TRACE_ADD_PREFETCH_HIT() ((void)0)
#define LDLA_TRACE_ADD_PREFETCH_STALL() ((void)0)
#define LDLA_TRACE_QUEUE_STAMP() (std::uint64_t{0})
#define LDLA_TRACE_TASK_DEQUEUED(enqueue_ns) ((void)(enqueue_ns))

#endif  // LDLA_TRACE_ENABLED
