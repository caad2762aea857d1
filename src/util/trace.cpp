// Implementation of the counter table and the span / session layer declared
// in util/trace.hpp.
//
// Counters live in the metrics registry (util/metrics.hpp): kCounterRows
// below is the one place that names them. Spans keep their own storage: a
// fixed static array of cache-line-aligned per-thread slots (no heap
// allocation on the hot path; the repo's allocation choke point stays
// intact). A thread claims a slot on first span and keeps it for the process
// lifetime; phase-time writes are relaxed fetch_adds on the owner's cache
// line, so snapshot() can aggregate lock-free from any thread. If more
// threads than slots ever appear, the overflow threads share the last slot:
// fetch_add keeps their queue-wait time exact, and the owner-only span
// machinery is disabled for them.
#include "util/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "util/annotations.hpp"
#include "util/contract.hpp"
#include "util/sync.hpp"
#include "util/cpu_info.hpp"
#include "util/metrics.hpp"
#include "util/peak.hpp"
#include "util/timer.hpp"

namespace ldla::trace {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kPackA:
      return "pack_a";
    case Phase::kPackB:
      return "pack_b";
    case Phase::kKernel:
      return "kernel";
    case Phase::kEpilogue:
      return "epilogue";
    case Phase::kMirror:
      return "mirror";
    case Phase::kIo:
      return "io";
    case Phase::kTaskRun:
      return "task_run";
    case Phase::kTaskWait:
      return "task_wait";
    case Phase::kBarrier:
      return "barrier";
  }
  return "unknown";
}

namespace {

// The counter table: one row per registry counter, naming the PhaseCounters
// field it feeds. steals and failed_steals have two rows each — the thread
// pool's task deques, then the fused nest's chunk deques — which snapshot()
// sums into the one field. Every other field has exactly one row.
struct CounterRow {
  std::uint64_t PhaseCounters::*field;
  const char* key;   ///< the field's name (BENCH_*.json "counters" key)
  const char* name;  ///< registry counter name
  const char* help;
};

#define LDLA_COUNTER_ROW(field, name, help) \
  CounterRow { &PhaseCounters::field, #field, name, help }

constexpr CounterRow kCounterRows[] = {
    LDLA_COUNTER_ROW(bytes_packed, "ldla_pack_bytes_total",
                     "bytes written into packed slivers"),
    LDLA_COUNTER_ROW(slivers_packed, "ldla_pack_slivers_total",
                     "slivers freshly packed"),
    LDLA_COUNTER_ROW(slivers_reused, "ldla_pack_slivers_reused_total",
                     "sliver views served from a persistent pack"),
    LDLA_COUNTER_ROW(kernel_calls, "ldla_kernel_calls_total",
                     "micro-kernel invocations"),
    LDLA_COUNTER_ROW(kernel_words, "ldla_kernel_words_total",
                     "popcount word-triples processed"),
    LDLA_COUNTER_ROW(tiles_emitted, "ldla_tiles_emitted_total",
                     "fused count tiles handed to sinks"),
    LDLA_COUNTER_ROW(epilogue_rows, "ldla_epilogue_rows_total",
                     "fused-epilogue stat rows converted"),
    LDLA_COUNTER_ROW(task_runs, "ldla_pool_tasks_total",
                     "thread-pool tasks executed"),
    LDLA_COUNTER_ROW(steals, "ldla_pool_steals_total",
                     "deque items taken by a non-owner"),
    LDLA_COUNTER_ROW(steals, "ldla_nest_steals_total",
                     "nest chunks taken from another team member's deque"),
    LDLA_COUNTER_ROW(failed_steals, "ldla_pool_failed_steals_total",
                     "steal probes that found nothing or lost the race"),
    LDLA_COUNTER_ROW(failed_steals, "ldla_nest_failed_steals_total",
                     "nest chunk steal probes that lost the race"),
    LDLA_COUNTER_ROW(parks, "ldla_pool_parks_total",
                     "worker blocks on the idle condition variable"),
    LDLA_COUNTER_ROW(barrier_waits, "ldla_pool_barrier_waits_total",
                     "fork-join caller barriers (pooled run_tasks joins)"),
    LDLA_COUNTER_ROW(sparse_ll_tiles, "ldla_sparse_ll_tiles_total",
                     "list x list register-tile kernel calls"),
    LDLA_COUNTER_ROW(sparse_ld_tiles, "ldla_sparse_ld_tiles_total",
                     "list x dense register-tile kernel calls"),
    LDLA_COUNTER_ROW(list_intersections, "ldla_sparse_intersections_total",
                     "sparse row-pair intersections computed"),
    LDLA_COUNTER_ROW(io_bytes_read, "ldla_shard_io_bytes_total",
                     "shard payload bytes explicitly faulted/read"),
    LDLA_COUNTER_ROW(prefetch_issued, "ldla_stream_prefetch_issued_total",
                     "shard prefetches initiated ahead of need"),
    LDLA_COUNTER_ROW(prefetch_hits, "ldla_stream_prefetch_hits_total",
                     "shard acquisitions served already-materialized"),
    LDLA_COUNTER_ROW(prefetch_stalls, "ldla_stream_prefetch_stalls_total",
                     "shard acquisitions materialized on the critical path"),
};

#undef LDLA_COUNTER_ROW

constexpr std::size_t kNumRows = std::size(kCounterRows);

// Rows feeding one field are adjacent, so a field's first row is the one
// whose predecessor feeds a different field.
constexpr bool first_row_of_field(std::size_t i) {
  return i == 0 || kCounterRows[i - 1].field != kCounterRows[i].field;
}

constexpr std::size_t count_fields() {
  std::size_t fields = 0;
  for (std::size_t i = 0; i < kNumRows; ++i) fields += first_row_of_field(i);
  return fields;
}
static_assert(count_fields() * sizeof(std::uint64_t) == sizeof(PhaseCounters),
              "kCounterRows must list every PhaseCounters field once, rows "
              "of one field adjacent");

}  // namespace

TraceSnapshot TraceSnapshot::since(const TraceSnapshot& earlier) const {
  TraceSnapshot d;
  // A field's second row recomputes the same difference.
  for (const CounterRow& r : kCounterRows) {
    d.counters.*r.field = counters.*r.field - earlier.counters.*r.field;
  }
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    d.phase_self_ns[i] = phase_self_ns[i] - earlier.phase_self_ns[i];
  }
  return d;
}

std::vector<std::pair<const char*, std::uint64_t>> counter_fields(
    const PhaseCounters& c) {
  std::vector<std::pair<const char*, std::uint64_t>> out;
  for (std::size_t i = 0; i < kNumRows; ++i) {
    if (first_row_of_field(i)) {
      out.emplace_back(kCounterRows[i].key, c.*kCounterRows[i].field);
    }
  }
  return out;
}

#if defined(LDLA_TRACE_ENABLED)

namespace {

constexpr std::uint32_t kMaxSlots = 128;
constexpr int kMaxDepth = 16;
constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 20;

// Compile-time index of the `nth` row feeding `field` (a missing row fails
// the build).
consteval std::size_t row(std::uint64_t PhaseCounters::*field,
                          std::size_t nth = 0) {
  for (std::size_t i = 0; i < kNumRows; ++i) {
    if (kCounterRows[i].field == field && nth-- == 0) return i;
  }
  throw "no counter row for this field";
}

// The registry counters behind kCounterRows, registered together on first
// use so every exporter lists all of them once any is touched.
metrics::Counter& registry_counter(std::size_t r) {
  static const std::array<metrics::Counter*, kNumRows> counters = [] {
    std::array<metrics::Counter*, kNumRows> out{};
    for (std::size_t i = 0; i < kNumRows; ++i) {
      out[i] = &metrics::counter(kCounterRows[i].name, kCounterRows[i].help);
    }
    return out;
  }();
  return *counters[r];
}

using metrics::detail::now_ns;

struct alignas(64) Slot {
  // Any-thread-readable, owner-written (overflow threads may share writes;
  // fetch_add keeps the totals exact either way).
  std::atomic<std::uint64_t> phase_ns[kPhaseCount] = {};
  std::atomic<bool> shared{false};
  std::uint32_t tid = 0;

  // Owner-only span stack (disabled on shared slots).
  struct Frame {
    Phase phase = Phase::kKernel;
    std::uint64_t t0 = 0;
    std::uint64_t child_ns = 0;
  };
  Frame stack[kMaxDepth];
  int depth = 0;

  // Owner-only session event buffer, tagged with the session epoch it
  // belongs to so stale buffers are dropped lazily by the owner.
  std::vector<TraceEvent> events;
  std::uint64_t events_epoch = 0;
  std::uint64_t events_dropped = 0;
};

Slot g_slots[kMaxSlots];
std::atomic<std::uint32_t> g_next_slot{0};

std::atomic<bool> g_session{false};
std::atomic<std::uint64_t> g_epoch{0};
std::atomic<std::uint64_t> g_session_t0{0};

// Guards session start/stop/name; never taken on the hot path.
Mutex g_session_mutex;
std::string g_session_name LDLA_GUARDED_BY(g_session_mutex);

thread_local Slot* t_slot = nullptr;

Slot* slot() {
  Slot* s = t_slot;
  if (s == nullptr) [[unlikely]] {
    const std::uint32_t idx =
        g_next_slot.fetch_add(1, std::memory_order_relaxed);
    if (idx < kMaxSlots) {
      s = &g_slots[idx];
      s->tid = idx;
    } else {
      s = &g_slots[kMaxSlots - 1];
      s->shared.store(true, std::memory_order_relaxed);
    }
    t_slot = s;
  }
  return s;
}

// Append a span event to the owner's buffer (caller checked !shared).
void append_event(Slot* s, Phase phase, std::uint64_t t0, std::uint64_t dur) {
  const std::uint64_t epoch = g_epoch.load(std::memory_order_relaxed);
  if (s->events_epoch != epoch) {
    s->events.clear();
    s->events_epoch = epoch;
    s->events_dropped = 0;
  }
  if (s->events.size() >= kMaxEventsPerThread) {
    ++s->events_dropped;
    return;
  }
  const std::uint64_t base = g_session_t0.load(std::memory_order_relaxed);
  TraceEvent e;
  e.phase = phase;
  e.tid = s->tid;
  e.ts_ns = t0 >= base ? t0 - base : 0;
  e.dur_ns = dur;
  s->events.push_back(e);
}

// Gather all event buffers belonging to the current epoch. Caller holds
// g_session_mutex and the quiescence contract.
std::vector<TraceEvent> gather_events() LDLA_REQUIRES(g_session_mutex) {
  std::vector<TraceEvent> out;
  const std::uint64_t epoch = g_epoch.load(std::memory_order_relaxed);
  const std::uint32_t n =
      std::min(g_next_slot.load(std::memory_order_relaxed), kMaxSlots);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Slot& s = g_slots[i];
    if (s.events_epoch == epoch) {
      out.insert(out.end(), s.events.begin(), s.events.end());
    }
  }
  return out;
}

std::uint64_t gather_dropped() LDLA_REQUIRES(g_session_mutex) {
  std::uint64_t dropped = 0;
  const std::uint64_t epoch = g_epoch.load(std::memory_order_relaxed);
  const std::uint32_t n =
      std::min(g_next_slot.load(std::memory_order_relaxed), kMaxSlots);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (g_slots[i].events_epoch == epoch) dropped += g_slots[i].events_dropped;
  }
  return dropped;
}

std::string sanitize_for_filename(const std::string& name) {
  std::string out;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    out += ok ? c : '_';
  }
  return out.empty() ? std::string("run") : out;
}

/// Write the Chrome-trace report. Caller holds g_session_mutex; the session
/// flag is already cleared so no new events race the buffers.
/// Returns the path, or "" on any write failure.
std::string write_report(const std::string& run_name)
    LDLA_REQUIRES(g_session_mutex) {
  const char* dir = std::getenv("LDLA_TRACE_DIR");
  std::string path = (dir != nullptr && *dir != '\0') ? dir : ".";
  path += "/trace_" + sanitize_for_filename(run_name) + ".json";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace: cannot open %s for writing\n", path.c_str());
    return "";
  }

  const TraceSnapshot snap = snapshot();
  const std::vector<TraceEvent> events = gather_events();
  const std::uint64_t dropped = gather_dropped();
  const std::uint64_t t_end = now_ns();
  const std::uint64_t t0 = g_session_t0.load(std::memory_order_relaxed);
  const CpuInfo& cpu = cpu_info();
  const TimingCalibration& cal = timing_calibration();

  std::string brand;
  metrics::detail::append_json_escaped(brand, cpu.brand.c_str());
  std::string run_escaped;
  metrics::detail::append_json_escaped(run_escaped, run_name.c_str());

  // Metadata block: everything needed to interpret the numbers offline.
  std::fprintf(f, "{\n\"metadata\": {\n");
  std::fprintf(f, "  \"run\": \"%s\",\n", run_escaped.c_str());
  std::fprintf(f, "  \"clock\": \"steady_clock\",\n");
  std::fprintf(f, "  \"session_ns\": %llu,\n",
               static_cast<unsigned long long>(t_end > t0 ? t_end - t0 : 0));
  std::fprintf(f, "  \"tsc_hz\": %.6g,\n", cal.tsc_hz);
  std::fprintf(f, "  \"core_hz\": %.6g,\n", cal.core_hz);
  std::fprintf(f, "  \"scalar_peak_triples_per_sec\": %.6g,\n",
               scalar_peak_triples_per_sec());
  std::fprintf(f,
               "  \"cpu\": {\"brand\": \"%s\", \"logical_cores\": %u, "
               "\"l1d\": %llu, \"l2\": %llu, \"l3\": %llu, \"line\": %llu},\n",
               brand.c_str(), cpu.logical_cores,
               static_cast<unsigned long long>(cpu.cache.l1d),
               static_cast<unsigned long long>(cpu.cache.l2),
               static_cast<unsigned long long>(cpu.cache.l3),
               static_cast<unsigned long long>(cpu.cache.line));
  std::fprintf(f, "  \"events_dropped\": %llu\n",
               static_cast<unsigned long long>(dropped));
  std::fprintf(f, "},\n");

  // The whole registry (process lifetime; diff two traces to window it),
  // phase counters included.
  std::fprintf(f, "\"metrics\": %s,\n", metrics::render_json().c_str());

  // Per-phase table: self time, plus words/second and %-of-scalar-peak for
  // the kernel phase (the paper's 3-ops/cycle argument).
  std::fprintf(f, "\"phases\": [\n");
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const Phase p = static_cast<Phase>(i);
    const double self_s =
        static_cast<double>(snap.phase_self_ns[i]) * 1e-9;
    std::fprintf(f, "  {\"phase\": \"%s\", \"self_ns\": %llu",
                 phase_name(p),
                 static_cast<unsigned long long>(snap.phase_self_ns[i]));
    if (p == Phase::kKernel && self_s > 0.0) {
      const double words_per_sec =
          static_cast<double>(snap.counters.kernel_words) / self_s;
      std::fprintf(f, ", \"words_per_sec\": %.6g", words_per_sec);
      const double peak = scalar_peak_triples_per_sec();
      if (peak > 0.0) {
        std::fprintf(f, ", \"pct_scalar_peak\": %.4g",
                     100.0 * words_per_sec / peak);
      }
    }
    std::fprintf(f, "}%s\n", i + 1 < kPhaseCount ? "," : "");
  }
  std::fprintf(f, "],\n");

  // Chrome-trace events: "X" complete events, microsecond timestamps.
  std::fprintf(f, "\"displayTimeUnit\": \"ms\",\n");
  std::fprintf(f, "\"traceEvents\": [\n");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"cat\": \"ldla\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u}%s\n",
                 phase_name(e.phase), static_cast<double>(e.ts_ns) * 1e-3,
                 static_cast<double>(e.dur_ns) * 1e-3, e.tid,
                 i + 1 < events.size() ? "," : "");
  }
  std::fprintf(f, "]\n}\n");

  const bool write_error = std::ferror(f) != 0;
  const bool close_error = std::fclose(f) != 0;
  if (write_error || close_error) {
    std::fprintf(stderr, "trace: error writing %s\n", path.c_str());
    return "";
  }
  return path;
}

void atexit_write() {
  // Best-effort flush for runs that never called stop_session_and_write().
  stop_session_and_write();
}

}  // namespace

namespace detail {

using P = PhaseCounters;

// One Counter::add on the registry counter of the `nth` row feeding Field.
template <std::uint64_t P::*Field, std::size_t Nth = 0>
void bump(std::uint64_t n) {
  registry_counter(row(Field, Nth)).add(n);
}

void add_pack(std::uint64_t slivers, std::uint64_t bytes) {
  bump<&P::slivers_packed>(slivers);
  bump<&P::bytes_packed>(bytes);
}

void add_reuse(std::uint64_t slivers) { bump<&P::slivers_reused>(slivers); }

void add_kernel(std::uint64_t calls, std::uint64_t words) {
  bump<&P::kernel_calls>(calls);
  bump<&P::kernel_words>(words);
}

void add_tile() { bump<&P::tiles_emitted>(1); }

void add_epilogue_rows(std::uint64_t rows) { bump<&P::epilogue_rows>(rows); }

void add_task_run() { bump<&P::task_runs>(1); }

void add_steal() { bump<&P::steals>(1); }

void add_failed_steal() { bump<&P::failed_steals>(1); }

void add_nest_steal() { bump<&P::steals, 1>(1); }

void add_nest_failed_steal() { bump<&P::failed_steals, 1>(1); }

void add_park() { bump<&P::parks>(1); }

void add_barrier_wait() { bump<&P::barrier_waits>(1); }

void add_sparse(std::uint64_t ll_tiles, std::uint64_t ld_tiles,
                std::uint64_t intersections) {
  bump<&P::sparse_ll_tiles>(ll_tiles);
  bump<&P::sparse_ld_tiles>(ld_tiles);
  bump<&P::list_intersections>(intersections);
}

void add_io_read(std::uint64_t bytes) { bump<&P::io_bytes_read>(bytes); }

void add_prefetch_issued() { bump<&P::prefetch_issued>(1); }

void add_prefetch_hit() { bump<&P::prefetch_hits>(1); }

void add_prefetch_stall() { bump<&P::prefetch_stalls>(1); }

std::uint64_t queue_stamp() { return now_ns(); }
void task_dequeued(std::uint64_t enqueue_ns) {
  if (enqueue_ns == 0) return;
  const std::uint64_t t1 = now_ns();
  const std::uint64_t wait = t1 > enqueue_ns ? t1 - enqueue_ns : 0;
  Slot* s = slot();
  s->phase_ns[static_cast<std::size_t>(Phase::kTaskWait)].fetch_add(
      wait, std::memory_order_relaxed);
  if (g_session.load(std::memory_order_acquire) &&
      !s->shared.load(std::memory_order_relaxed)) {
    append_event(s, Phase::kTaskWait, enqueue_ns, wait);
  }
}

}  // namespace detail

Span::Span(Phase p) noexcept {
  Slot* s = slot();
  if (s->shared.load(std::memory_order_relaxed) || s->depth >= kMaxDepth) {
    return;
  }
  Slot::Frame& f = s->stack[s->depth];
  f.phase = p;
  f.child_ns = 0;
  f.t0 = now_ns();
  ++s->depth;
  slot_ = s;
}

Span::~Span() {
  if (slot_ == nullptr) return;
  Slot* s = static_cast<Slot*>(slot_);
  const std::uint64_t t1 = now_ns();
  Slot::Frame& f = s->stack[s->depth - 1];
  const std::uint64_t dur = t1 > f.t0 ? t1 - f.t0 : 0;
  const std::uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
  const auto pi = static_cast<std::size_t>(f.phase);
  s->phase_ns[pi].fetch_add(self, std::memory_order_relaxed);

  --s->depth;
  if (s->depth > 0) s->stack[s->depth - 1].child_ns += dur;

  if (g_session.load(std::memory_order_acquire)) {
    append_event(s, f.phase, f.t0, dur);
  }
}

TraceSnapshot snapshot() {
  TraceSnapshot out;
  for (std::size_t i = 0; i < kNumRows; ++i) {
    out.counters.*kCounterRows[i].field += registry_counter(i).value();
  }
  const std::uint32_t n =
      std::min(g_next_slot.load(std::memory_order_relaxed), kMaxSlots);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Slot& s = g_slots[i];
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      out.phase_self_ns[p] += s.phase_ns[p].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void start_session(const std::string& run_name) {
  LDLA_EXPECT(!run_name.empty(), "trace run name must be non-empty");
  LDLA_EXPECT(run_name.find('\n') == std::string::npos,
              "trace run name must be a single line");
  const MutexLock lock(g_session_mutex);
  g_session_name = run_name;
  g_epoch.fetch_add(1, std::memory_order_relaxed);  // invalidate old buffers
  g_session_t0.store(now_ns(), std::memory_order_relaxed);
  g_session.store(true, std::memory_order_release);
  static const int registered = std::atexit(atexit_write);
  (void)registered;
}

bool session_active() { return g_session.load(std::memory_order_acquire); }

std::string stop_session_and_write() {
  const MutexLock lock(g_session_mutex);
  if (!g_session.load(std::memory_order_acquire)) return "";
  g_session.store(false, std::memory_order_release);
  return write_report(g_session_name);
}

void cancel_session() {
  const MutexLock lock(g_session_mutex);
  g_session.store(false, std::memory_order_release);
  g_epoch.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TraceEvent> session_events() {
  const MutexLock lock(g_session_mutex);
  return gather_events();
}

#else  // !LDLA_TRACE_ENABLED

// Compiled-out stubs: the macros already expand to nothing; these keep the
// runtime API linkable so benches/tests can query state unconditionally.

TraceSnapshot snapshot() { return {}; }

void start_session(const std::string& run_name) {
  LDLA_EXPECT(!run_name.empty(), "trace run name must be non-empty");
  LDLA_EXPECT(run_name.find('\n') == std::string::npos,
              "trace run name must be a single line");
}

bool session_active() { return false; }

std::string stop_session_and_write() { return ""; }

void cancel_session() {}

std::vector<TraceEvent> session_events() { return {}; }

#endif  // LDLA_TRACE_ENABLED

}  // namespace ldla::trace
