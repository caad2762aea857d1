#include "util/metrics.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "util/contract.hpp"
#include "util/sync.hpp"

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

using detail::append_json_escaped;

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
// Renderer
// ---------------------------------------------------------------------------

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

bool dump_json(const std::string& path) {
  LDLA_EXPECT(!path.empty(), "dump_json: path is empty");
  const std::string body = render_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return (std::fclose(f) == 0) && ok;
}

}  // namespace ldla::metrics
