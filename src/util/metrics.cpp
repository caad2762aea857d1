#include "util/metrics.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "util/contract.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace ldla::metrics {

namespace detail {

// Sole writer of registered-metric metadata (friend of the metric classes).
struct Registry {
  static void set_meta(Counter& c, const char* name, const char* help) {
    c.name_ = name;
    c.help_ = help != nullptr ? help : "";
  }
  static void set_meta(Gauge& g, const char* name, const char* help) {
    g.name_ = name;
    g.help_ = help != nullptr ? help : "";
  }
  static void set_meta(Histogram& h, const char* name, const char* help) {
    h.name_ = name;
    h.help_ = help != nullptr ? help : "";
  }
  static void set_meta(Info& m, const char* name, const char* label,
                       const char* help) {
    m.name_ = name;
    m.label_ = label;
    m.help_ = help != nullptr ? help : "";
  }
};

std::atomic<bool> g_enabled{true};

std::uint32_t claim_stripe() noexcept {
  static std::atomic<std::uint32_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}
bool enabled() noexcept { return detail::on(); }

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kMaxCounters = 64;
constexpr std::size_t kMaxGauges = 64;
constexpr std::size_t kMaxHistograms = 24;
constexpr std::size_t kMaxInfos = 16;

// Storage is constant-initialized (atomics with constexpr constructors), so
// registration from any static initializer is safe.
Mutex g_registry_mu;
Counter g_counters[kMaxCounters];
Gauge g_gauges[kMaxGauges];
Histogram g_histograms[kMaxHistograms];
Info g_infos[kMaxInfos];
std::size_t g_n_counters LDLA_GUARDED_BY(g_registry_mu) = 0;
std::size_t g_n_gauges LDLA_GUARDED_BY(g_registry_mu) = 0;
std::size_t g_n_histograms LDLA_GUARDED_BY(g_registry_mu) = 0;
std::size_t g_n_infos LDLA_GUARDED_BY(g_registry_mu) = 0;

bool valid_metric_name(const char* name) {
  if (name == nullptr || *name == '\0') return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(*name)) return false;
  for (const char* p = name + 1; *p != '\0'; ++p) {
    if (!head(*p) && !(*p >= '0' && *p <= '9')) return false;
  }
  return true;
}

bool name_in_use(const char* name, const Counter* skip_kind_c,
                 const Gauge* skip_kind_g, const Histogram* skip_kind_h,
                 const Info* skip_kind_i = nullptr)
    LDLA_REQUIRES(g_registry_mu) {
  if (skip_kind_c == nullptr) {
    for (std::size_t i = 0; i < g_n_counters; ++i) {
      if (std::strcmp(g_counters[i].name(), name) == 0) return true;
    }
  }
  if (skip_kind_g == nullptr) {
    for (std::size_t i = 0; i < g_n_gauges; ++i) {
      if (std::strcmp(g_gauges[i].name(), name) == 0) return true;
    }
  }
  if (skip_kind_h == nullptr) {
    for (std::size_t i = 0; i < g_n_histograms; ++i) {
      if (std::strcmp(g_histograms[i].name(), name) == 0) return true;
    }
  }
  if (skip_kind_i == nullptr) {
    for (std::size_t i = 0; i < g_n_infos; ++i) {
      if (std::strcmp(g_infos[i].name(), name) == 0) return true;
    }
  }
  return false;
}

void append_json_escaped(std::string& out, const char* s) {
  for (const char* p = s; *p != '\0'; ++p) {
    const char c = *p;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  // JSON forbids bare nan/inf; clamp to 0 (metrics values never should be).
  if (std::strstr(buf, "nan") != nullptr || std::strstr(buf, "inf") != nullptr) {
    out += "0";
    return;
  }
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // 1-based rank of the requested sample.
  std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(total) + 0.5);
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    const std::uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    if (cum + n >= rank) {
      const double lower = static_cast<double>(bucket_lower(i));
      const double upper = static_cast<double>(bucket_upper(i));
      const double frac =
          static_cast<double>(rank - cum) / static_cast<double>(n);
      return (lower + frac * (upper - lower)) * 1e-9;
    }
    cum += n;
  }
  // Writers raced count_ ahead of the bucket updates; report the top.
  return static_cast<double>(kMaxTracked) * 1e-9;
}

Counter& counter(const char* name, const char* help) {
  LDLA_EXPECT(valid_metric_name(name), "metrics: invalid counter name");
  MutexLock lock(g_registry_mu);
  for (std::size_t i = 0; i < g_n_counters; ++i) {
    if (std::strcmp(g_counters[i].name(), name) == 0) return g_counters[i];
  }
  LDLA_EXPECT(!name_in_use(name, g_counters, nullptr, nullptr),
              "metrics: name already registered with a different kind");
  LDLA_EXPECT(g_n_counters < kMaxCounters, "metrics: counter registry full");
  Counter& c = g_counters[g_n_counters++];
  detail::Registry::set_meta(c, name, help);
  return c;
}

Gauge& gauge(const char* name, const char* help) {
  LDLA_EXPECT(valid_metric_name(name), "metrics: invalid gauge name");
  MutexLock lock(g_registry_mu);
  for (std::size_t i = 0; i < g_n_gauges; ++i) {
    if (std::strcmp(g_gauges[i].name(), name) == 0) return g_gauges[i];
  }
  LDLA_EXPECT(!name_in_use(name, nullptr, g_gauges, nullptr),
              "metrics: name already registered with a different kind");
  LDLA_EXPECT(g_n_gauges < kMaxGauges, "metrics: gauge registry full");
  Gauge& g = g_gauges[g_n_gauges++];
  detail::Registry::set_meta(g, name, help);
  return g;
}

Histogram& histogram(const char* name, const char* help) {
  LDLA_EXPECT(valid_metric_name(name), "metrics: invalid histogram name");
  MutexLock lock(g_registry_mu);
  for (std::size_t i = 0; i < g_n_histograms; ++i) {
    if (std::strcmp(g_histograms[i].name(), name) == 0) {
      return g_histograms[i];
    }
  }
  LDLA_EXPECT(!name_in_use(name, nullptr, nullptr, g_histograms),
              "metrics: name already registered with a different kind");
  LDLA_EXPECT(g_n_histograms < kMaxHistograms,
              "metrics: histogram registry full");
  Histogram& h = g_histograms[g_n_histograms++];
  detail::Registry::set_meta(h, name, help);
  return h;
}

Info& info(const char* name, const char* label, const char* help) {
  LDLA_EXPECT(valid_metric_name(name), "metrics: invalid info name");
  LDLA_EXPECT(valid_metric_name(label), "metrics: invalid info label name");
  MutexLock lock(g_registry_mu);
  for (std::size_t i = 0; i < g_n_infos; ++i) {
    if (std::strcmp(g_infos[i].name(), name) == 0) {
      LDLA_EXPECT(std::strcmp(g_infos[i].label(), label) == 0,
                  "metrics: info re-registered with a different label");
      return g_infos[i];
    }
  }
  LDLA_EXPECT(!name_in_use(name, nullptr, nullptr, nullptr, g_infos),
              "metrics: name already registered with a different kind");
  LDLA_EXPECT(g_n_infos < kMaxInfos, "metrics: info registry full");
  Info& m = g_infos[g_n_infos++];
  detail::Registry::set_meta(m, name, label, help);
  return m;
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

std::string render_prometheus() {
  std::string out;
  out.reserve(8192);
  const auto help_line = [&out](const char* name, const char* help,
                                const char* type) {
    out += "# HELP ";
    out += name;
    out += ' ';
    // Exposition format escapes backslash and newline in help text.
    for (const char* p = help; *p != '\0'; ++p) {
      if (*p == '\\') {
        out += "\\\\";
      } else if (*p == '\n') {
        out += "\\n";
      } else {
        out += *p;
      }
    }
    out += "\n# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
  };
  MutexLock lock(g_registry_mu);
  for (std::size_t i = 0; i < g_n_counters; ++i) {
    const Counter& c = g_counters[i];
    help_line(c.name(), c.help(), "counter");
    out += c.name();
    out += ' ';
    append_u64(out, c.value());
    out += '\n';
  }
  for (std::size_t i = 0; i < g_n_gauges; ++i) {
    const Gauge& g = g_gauges[i];
    help_line(g.name(), g.help(), "gauge");
    out += g.name();
    out += ' ';
    append_double(out, g.value());
    out += '\n';
  }
  for (std::size_t i = 0; i < g_n_infos; ++i) {
    const Info& m = g_infos[i];
    const char* v = m.value();
    if (v == nullptr) continue;  // never set — no sample to expose
    help_line(m.name(), m.help(), "gauge");
    out += m.name();
    out += '{';
    out += m.label();
    out += "=\"";
    // Exposition format escapes backslash, quote, and newline in label
    // values.
    for (const char* p = v; *p != '\0'; ++p) {
      if (*p == '\\') {
        out += "\\\\";
      } else if (*p == '"') {
        out += "\\\"";
      } else if (*p == '\n') {
        out += "\\n";
      } else {
        out += *p;
      }
    }
    out += "\"} 1\n";
  }
  for (std::size_t i = 0; i < g_n_histograms; ++i) {
    const Histogram& h = g_histograms[i];
    help_line(h.name(), h.help(), "histogram");
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < Histogram::kBucketCount; ++b) {
      const std::uint64_t n = h.bucket_count_at(b);
      if (n == 0) continue;
      cum += n;
      out += h.name();
      out += "_bucket{le=\"";
      append_double(out, static_cast<double>(Histogram::bucket_upper(b)) *
                             1e-9);
      out += "\"} ";
      append_u64(out, cum);
      out += '\n';
    }
    out += h.name();
    out += "_bucket{le=\"+Inf\"} ";
    append_u64(out, h.count());
    out += '\n';
    out += h.name();
    out += "_sum ";
    append_double(out, h.sum_seconds());
    out += '\n';
    out += h.name();
    out += "_count ";
    append_u64(out, h.count());
    out += '\n';
  }
  return out;
}

std::string render_json() {
  std::string out;
  out.reserve(8192);
  out += "{\"schema\": \"ldla-metrics-v1\", \"enabled\": ";
  out += enabled() ? "true" : "false";
  MutexLock lock(g_registry_mu);
  out += ", \"counters\": {";
  for (std::size_t i = 0; i < g_n_counters; ++i) {
    const Counter& c = g_counters[i];
    if (i != 0) out += ", ";
    out += '"';
    append_json_escaped(out, c.name());
    out += "\": {\"help\": \"";
    append_json_escaped(out, c.help());
    out += "\", \"value\": ";
    append_u64(out, c.value());
    out += '}';
  }
  out += "}, \"gauges\": {";
  for (std::size_t i = 0; i < g_n_gauges; ++i) {
    const Gauge& g = g_gauges[i];
    if (i != 0) out += ", ";
    out += '"';
    append_json_escaped(out, g.name());
    out += "\": {\"help\": \"";
    append_json_escaped(out, g.help());
    out += "\", \"value\": ";
    append_double(out, g.value());
    out += '}';
  }
  out += "}, \"infos\": {";
  for (std::size_t i = 0; i < g_n_infos; ++i) {
    const Info& m = g_infos[i];
    if (i != 0) out += ", ";
    out += '"';
    append_json_escaped(out, m.name());
    out += "\": {\"help\": \"";
    append_json_escaped(out, m.help());
    out += "\", \"label\": \"";
    append_json_escaped(out, m.label());
    out += "\", \"value\": ";
    const char* v = m.value();
    if (v == nullptr) {
      out += "null";
    } else {
      out += '"';
      append_json_escaped(out, v);
      out += '"';
    }
    out += '}';
  }
  out += "}, \"histograms\": {";
  for (std::size_t i = 0; i < g_n_histograms; ++i) {
    const Histogram& h = g_histograms[i];
    if (i != 0) out += ", ";
    out += '"';
    append_json_escaped(out, h.name());
    out += "\": {\"help\": \"";
    append_json_escaped(out, h.help());
    out += "\", \"count\": ";
    append_u64(out, h.count());
    out += ", \"sum_seconds\": ";
    append_double(out, h.sum_seconds());
    out += ", \"p50\": ";
    append_double(out, h.quantile(0.50));
    out += ", \"p90\": ";
    append_double(out, h.quantile(0.90));
    out += ", \"p99\": ";
    append_double(out, h.quantile(0.99));
    out += ", \"p999\": ";
    append_double(out, h.quantile(0.999));
    out += ", \"buckets\": [";
    std::uint64_t cum = 0;
    bool first = true;
    for (std::size_t b = 0; b < Histogram::kBucketCount; ++b) {
      const std::uint64_t n = h.bucket_count_at(b);
      if (n == 0) continue;
      cum += n;
      if (!first) out += ", ";
      first = false;
      out += '[';
      append_double(out, static_cast<double>(Histogram::bucket_upper(b)) *
                             1e-9);
      out += ", ";
      append_u64(out, cum);
      out += ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

namespace {

bool write_whole_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return (std::fclose(f) == 0) && ok;
}

}  // namespace

bool dump_prometheus(const std::string& path) {
  LDLA_EXPECT(!path.empty(), "dump_prometheus: path is empty");
  return write_whole_file(path, render_prometheus());
}

bool dump_json(const std::string& path) {
  LDLA_EXPECT(!path.empty(), "dump_json: path is empty");
  return write_whole_file(path, render_json());
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kMaxProbes = 8;

struct Probe {
  const char* gauge_name = nullptr;
  std::uint64_t (*fn)(void*) = nullptr;
  void* ctx = nullptr;
};

// Tick-state mutex: taken by the sampler thread, probes, and accessors.
Mutex g_sampler_mu;
CondVar g_sampler_cv;
bool g_sampler_stop LDLA_GUARDED_BY(g_sampler_mu) = false;
bool g_sampler_running LDLA_GUARDED_BY(g_sampler_mu) = false;
std::uint64_t g_sampler_interval_ms LDLA_GUARDED_BY(g_sampler_mu) = 0;
Probe g_probes[kMaxProbes] LDLA_GUARDED_BY(g_sampler_mu);
std::size_t g_n_probes LDLA_GUARDED_BY(g_sampler_mu) = 0;
std::atomic<std::uint64_t> g_sampler_ticks{0};

// Control mutex: serializes start/stop (which own the thread handle). The
// sampler thread never takes it, so joining under it cannot deadlock.
Mutex g_sampler_ctl_mu;
std::thread g_sampler_thread LDLA_GUARDED_BY(g_sampler_ctl_mu);

bool read_small_file(const char* path, char* buf, std::size_t cap,
                     std::size_t* len) {
  std::FILE* f = std::fopen(path, "re");
  if (f == nullptr) return false;
  *len = std::fread(buf, 1, cap - 1, f);
  buf[*len] = '\0';
  std::fclose(f);
  return *len > 0;
}

std::uint64_t page_size_bytes() {
  static const long ps = ::sysconf(_SC_PAGESIZE);
  return ps > 0 ? static_cast<std::uint64_t>(ps) : 4096;
}

void sample_proc_self() {
  char buf[2048];
  std::size_t len = 0;
  if (read_small_file("/proc/self/statm", buf, sizeof(buf), &len)) {
    unsigned long long vsz = 0;
    unsigned long long rss = 0;
    if (std::sscanf(buf, "%llu %llu", &vsz, &rss) == 2) {
      static Gauge& g_rss = gauge("ldla_process_rss_bytes",
                                  "resident set size (statm, bytes)");
      g_rss.set(static_cast<std::uint64_t>(rss) * page_size_bytes());
    }
  }
  if (read_small_file("/proc/self/stat", buf, sizeof(buf), &len)) {
    // Fields after the parenthesized comm: state ppid pgrp session tty_nr
    // tpgid flags minflt cminflt majflt ...
    const char* p = std::strrchr(buf, ')');
    char state = 0;
    long ppid = 0;
    long pgrp = 0;
    long session = 0;
    long tty = 0;
    long tpgid = 0;
    unsigned long flags = 0;
    unsigned long minflt = 0;
    unsigned long cminflt = 0;
    unsigned long majflt = 0;
    if (p != nullptr &&
        std::sscanf(p + 1, " %c %ld %ld %ld %ld %ld %lu %lu %lu %lu", &state,
                    &ppid, &pgrp, &session, &tty, &tpgid, &flags, &minflt,
                    &cminflt, &majflt) == 10) {
      static Gauge& g_minflt = gauge("ldla_process_minor_faults",
                                     "minor page faults since process start");
      static Gauge& g_majflt = gauge("ldla_process_major_faults",
                                     "major page faults since process start");
      g_minflt.set(static_cast<std::uint64_t>(minflt));
      g_majflt.set(static_cast<std::uint64_t>(majflt));
    }
  }
  // May be unreadable in restricted containers; skipped silently then.
  if (read_small_file("/proc/self/io", buf, sizeof(buf), &len)) {
    const auto field = [&buf](const char* key) -> std::uint64_t {
      const char* p = std::strstr(buf, key);
      if (p == nullptr) return 0;
      return std::strtoull(p + std::strlen(key), nullptr, 10);
    };
    static Gauge& g_rd = gauge("ldla_process_io_read_bytes",
                               "bytes read by the process (rchar)");
    static Gauge& g_wr = gauge("ldla_process_io_write_bytes",
                               "bytes written by the process (wchar)");
    g_rd.set(field("rchar:"));
    g_wr.set(field("wchar:"));
  }
}

void sample_pool() {
  ThreadPool* pool = global_pool_if_started();
  if (pool == nullptr) return;
  static Gauge& g_depth = gauge("ldla_pool_queue_depth",
                                "task nodes resident in submission deques");
  static Gauge& g_workers =
      gauge("ldla_pool_workers", "spawned worker threads in the global pool");
  g_depth.set(static_cast<std::uint64_t>(pool->pending_tasks()));
  g_workers.set(static_cast<std::uint64_t>(pool->size()));
}

void sample_probes() {
  Probe local[kMaxProbes];
  std::size_t n = 0;
  {
    MutexLock lock(g_sampler_mu);
    n = g_n_probes;
    for (std::size_t i = 0; i < n; ++i) local[i] = g_probes[i];
  }
  // Run probe callbacks outside the sampler mutex: they may touch their own
  // locks (e.g. ShardStore residency), and the registry has its own mutex.
  for (std::size_t i = 0; i < n; ++i) {
    gauge(local[i].gauge_name, "registered sampler probe")
        .set(local[i].fn(local[i].ctx));
  }
}

void sample_tick() {
  sample_proc_self();
  sample_pool();
  sample_probes();
  g_sampler_ticks.fetch_add(1, std::memory_order_relaxed);
  static Counter& c_ticks =
      counter("ldla_sampler_ticks_total", "health sampler ticks executed");
  c_ticks.inc();
}

void sampler_loop() {
  for (;;) {
    {
      MutexLock lock(g_sampler_mu);
      if (g_sampler_stop) return;
      g_sampler_cv.wait_for(lock, g_sampler_interval_ms);
      if (g_sampler_stop) return;
    }
    sample_tick();
  }
}

void stop_impl() LDLA_REQUIRES(g_sampler_ctl_mu) {
  {
    MutexLock lock(g_sampler_mu);
    if (!g_sampler_running) return;
    g_sampler_stop = true;
  }
  g_sampler_cv.notify_all();
  if (g_sampler_thread.joinable()) g_sampler_thread.join();
  MutexLock lock(g_sampler_mu);
  g_sampler_running = false;
}

}  // namespace

void Sampler::start(std::uint64_t interval_ms) {
  LDLA_EXPECT(interval_ms > 0, "Sampler::start: interval_ms must be > 0");
  MutexLock ctl(g_sampler_ctl_mu);
  stop_impl();
  {
    MutexLock lock(g_sampler_mu);
    g_sampler_stop = false;
    g_sampler_interval_ms = interval_ms;
    g_sampler_running = true;
  }
  g_sampler_thread = std::thread(sampler_loop);
}

void Sampler::stop() {
  MutexLock ctl(g_sampler_ctl_mu);
  stop_impl();
}

bool Sampler::running() {
  MutexLock lock(g_sampler_mu);
  return g_sampler_running;
}

std::uint64_t Sampler::ticks() {
  return g_sampler_ticks.load(std::memory_order_relaxed);
}

void Sampler::sample_now() { sample_tick(); }

int Sampler::add_probe(const char* gauge_name, std::uint64_t (*fn)(void*),
                       void* ctx) {
  LDLA_EXPECT(gauge_name != nullptr && fn != nullptr,
              "Sampler::add_probe: null name or callback");
  MutexLock lock(g_sampler_mu);
  if (g_n_probes >= kMaxProbes) return -1;
  g_probes[g_n_probes] = Probe{gauge_name, fn, ctx};
  return static_cast<int>(g_n_probes++);
}

void Sampler::clear_probes() {
  MutexLock lock(g_sampler_mu);
  g_n_probes = 0;
}

}  // namespace ldla::metrics
