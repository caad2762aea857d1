// Always-on runtime metrics: lock-free counters, gauges, log-linear latency
// histograms and info labels, with one JSON renderer.
//
// This registry is the only counter store: the trace layer's phase counters
// (util/trace.hpp, trace::PhaseCounters) are registry counters named by the
// table in util/trace.cpp, and trace::snapshot() reads them back from here.
// The trace report embeds render_json() as its "metrics" member.
//
// Hot-path cost model:
//   Counter::add   — one relaxed fetch_add on a thread-striped cache line
//                    (no sharing below kStripes concurrent writers).
//   Gauge::set     — one relaxed store.
//   Histogram::record_ns — bucket index from bit_width (no float math, no
//                    search), then three relaxed fetch_adds.
// No sink allocates, locks, or syscalls. Aggregation happens at render
// time (render_json), which takes the registry mutex and sums
// stripes/buckets with relaxed loads.
//
// Registration (`metrics::counter(name, help)` etc.) is find-or-create by
// name in fixed-capacity static storage; call it once per site through a
// function-local static reference:
//
//   LDLA_METRICS_ONLY(
//       static metrics::Counter& c = metrics::counter(
//           "ldla_shard_releases_total", "shards released");
//       c.inc();)
//
// `name` and `help` must be string literals (or otherwise outlive the
// process); the registry stores the pointers, not copies.
//
// The CMake option LDLA_TRACE (default ON) gates every instrumentation
// macro, LDLA_METRICS_ONLY(...) included: the registry and its renderer are
// always compiled and linkable, so tooling and tests work in every preset,
// while -DLDLA_TRACE=OFF is the compiled-out control for overhead
// measurement (library hot paths carry no instrumentation at all).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/annotations.hpp"

#if defined(LDLA_TRACE_ENABLED)
#define LDLA_METRICS_ONLY(...) __VA_ARGS__
#else
#define LDLA_METRICS_ONLY(...)
#endif

namespace ldla::metrics {

namespace detail {

/// Runtime master switch checked by every sink. Lives here (not behind a
/// function call) so the disabled path is a single relaxed load + branch.
extern std::atomic<bool> g_enabled;

inline bool on() noexcept { return g_enabled.load(std::memory_order_relaxed); }

/// Stable per-thread stripe index in [0, kStripes); claimed on first use.
std::uint32_t claim_stripe() noexcept;

inline std::uint32_t stripe_index() noexcept {
  thread_local const std::uint32_t idx = claim_stripe();
  return idx;
}

/// Monotonic nanoseconds (steady clock); used by ScopedLatency and the trace
/// layer's spans.
std::uint64_t now_ns() noexcept;

/// Append `s` to `out` with JSON string escaping (no surrounding quotes).
void append_json_escaped(std::string& out, const char* s);

struct Registry;  // registration/render internals (metrics.cpp)

}  // namespace detail

/// Enable/disable every sink at runtime — the trace layer's phase counters
/// included (scrapes still work while disabled; they just see frozen
/// values). Used by the bench overhead arm as the runtime proxy for the
/// compile-out control.
void set_enabled(bool on) noexcept;
bool enabled() noexcept;

/// Monotonic counter, striped across kStripes cache lines indexed by a
/// per-thread slot so concurrent writers do not share a line.
class Counter {
 public:
  static constexpr std::size_t kStripes = 8;

  void add(std::uint64_t n) noexcept {
    if (!detail::on()) return;
    stripes_[detail::stripe_index() % kStripes].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  /// Sum of all stripes (relaxed; exact once writers quiesce).
  [[nodiscard]] std::uint64_t value() const noexcept;

  [[nodiscard]] const char* name() const noexcept { return name_; }
  [[nodiscard]] const char* help() const noexcept { return help_; }

 private:
  friend struct detail::Registry;
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };
  Stripe stripes_[kStripes];
  const char* name_ = nullptr;
  const char* help_ = "";
};

/// Last-writer-wins instantaneous value (double-valued).
class Gauge {
 public:
  void set(double v) noexcept {
    if (!detail::on()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void set(std::uint64_t v) noexcept { set(static_cast<double>(v)); }

  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const char* name() const noexcept { return name_; }
  [[nodiscard]] const char* help() const noexcept { return help_; }

 private:
  friend struct detail::Registry;
  std::atomic<double> v_{0.0};
  const char* name_ = nullptr;
  const char* help_ = "";
};

/// HDR-style log-linear latency histogram over nanosecond samples.
///
/// Bucket scheme (kSubBits = 5): values below 2^5 = 32 map exactly to
/// buckets 0..31; each octave [2^e, 2^(e+1)) for e in [5, 41] splits into
/// 2^(kSubBits-1) = 16 equal sub-buckets of width 2^(e-4), so the relative
/// quantization error is at most 2^-4 = 6.25% anywhere in the tracked
/// range (values up to 2^42 ns ≈ 73 minutes; beyond that clamps into the
/// last bucket). 624 buckets total, 8 bytes each.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 5;
  static constexpr std::size_t kFirstBuckets = std::size_t{1} << kSubBits;
  static constexpr std::size_t kSubPerOctave = std::size_t{1}
                                               << (kSubBits - 1);
  static constexpr unsigned kMaxExp = 41;
  static constexpr std::uint64_t kMaxTracked = std::uint64_t{1}
                                               << (kMaxExp + 1);
  static constexpr std::size_t kBucketCount =
      kFirstBuckets + (kMaxExp - kSubBits + 1) * kSubPerOctave;

  /// Bucket index for a nanosecond value; pure function of the scheme
  /// above, exposed (with the bounds below) so tests can pin the layout
  /// analytically.
  static constexpr std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v >= kMaxTracked) return kBucketCount - 1;
    if (v < kFirstBuckets) return static_cast<std::size_t>(v);
    const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
    const std::uint64_t sub =
        (v - (std::uint64_t{1} << e)) >> (e - (kSubBits - 1));
    return kFirstBuckets + (e - kSubBits) * kSubPerOctave +
           static_cast<std::size_t>(sub);
  }

  /// Inclusive lower bound of bucket `i` in nanoseconds.
  static constexpr std::uint64_t bucket_lower(std::size_t i) noexcept {
    if (i < kFirstBuckets) return i;
    const std::size_t j = i - kFirstBuckets;
    const unsigned e = kSubBits + static_cast<unsigned>(j / kSubPerOctave);
    const std::uint64_t sub = j % kSubPerOctave;
    return (std::uint64_t{1} << e) + (sub << (e - (kSubBits - 1)));
  }

  /// Exclusive upper bound of bucket `i` in nanoseconds.
  static constexpr std::uint64_t bucket_upper(std::size_t i) noexcept {
    return i + 1 < kBucketCount ? bucket_lower(i + 1) : kMaxTracked;
  }

  void record_ns(std::uint64_t ns) noexcept {
    if (!detail::on()) return;
    buckets_[bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum_seconds() const noexcept {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }

  /// Quantile estimate in seconds (q in [0,1]), linearly interpolated
  /// within the containing bucket; 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Raw sample count of bucket `i` (relaxed; exporters and tests).
  [[nodiscard]] std::uint64_t bucket_count_at(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  [[nodiscard]] const char* name() const noexcept { return name_; }
  [[nodiscard]] const char* help() const noexcept { return help_; }

 private:
  friend struct detail::Registry;
  std::atomic<std::uint64_t> buckets_[kBucketCount]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  const char* name_ = nullptr;
  const char* help_ = "";
};

/// Info-style metric: one label whose value is a string (rendered under
/// "infos" as {"label": ..., "value": ...}). The label value must be a
/// string literal or otherwise outlive the process — the pointer is stored
/// in one atomic, which is what keeps set() a single relaxed store (kernel
/// dispatch calls it per macro-tile panel sweep). Until the first set() the
/// value renders as null.
class Info {
 public:
  void set(const char* value) noexcept {
    if (!detail::on()) return;
    v_.store(value, std::memory_order_relaxed);
  }

  /// Currently published label value; nullptr before the first set().
  [[nodiscard]] const char* value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const char* name() const noexcept { return name_; }
  [[nodiscard]] const char* label() const noexcept { return label_; }
  [[nodiscard]] const char* help() const noexcept { return help_; }

 private:
  friend struct detail::Registry;
  std::atomic<const char*> v_{nullptr};
  const char* name_ = nullptr;
  const char* label_ = nullptr;
  const char* help_ = "";
};

/// Find-or-create by name. Names must match [a-zA-Z_:][a-zA-Z0-9_:]*, be
/// unique across all four kinds, and be string literals (the pointer is
/// stored). Capacity is fixed; exceeding it or
/// reusing a name for a different kind throws ContractViolation. For
/// info(), `label` must also be a valid label name and is pinned at first
/// registration (re-registering with a different label throws).
Counter& counter(const char* name, const char* help);
Gauge& gauge(const char* name, const char* help);
Histogram& histogram(const char* name, const char* help);
Info& info(const char* name, const char* label, const char* help);

/// RAII latency sample into a histogram (nanosecond steady-clock delta).
/// When metrics are runtime-disabled at construction, the timestamp is
/// skipped entirely.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& h) noexcept
      : h_(h), t0_(detail::on() ? detail::now_ns() : 0) {}
  ~ScopedLatency() {
    if (t0_ != 0) h_.record_ns(detail::now_ns() - t0_);
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram& h_;
  std::uint64_t t0_;
};

/// Render a JSON snapshot: {"schema":"ldla-metrics-v1","enabled":...,
/// "counters":{...},"gauges":{...},"infos":{...},"histograms":{...}}.
/// Histogram entries carry count, sum_seconds, p50/p90/p99/p999, and the
/// non-empty cumulative buckets as [upper_seconds, cumulative_count] pairs.
/// The object is suitable for embedding into a BenchJson row or a trace
/// report.
std::string render_json();

/// Write render_json() to `path`. Returns false on I/O failure. `path`
/// must be non-empty.
bool dump_json(const std::string& path);

}  // namespace ldla::metrics
