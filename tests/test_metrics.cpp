// Tests for the always-on metrics layer (util/metrics.hpp): striped
// counter aggregation, the runtime enable switch, analytic histogram
// bucket layout and quantile math, the JSON renderer's output, and
// trace::snapshot() reading the phase counters back out of the registry.
//
// The registry is process-global find-or-create storage, so tests reuse
// fixed names freely — re-registering a name returns the same object.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/band.hpp"
#include "core/gemm/macro.hpp"
#include "core/ld_stream.hpp"
#include "count_sink.hpp"
#include "io/shard_store.hpp"
#include "phase_counter_names.hpp"
#include "sim/maf_spectrum.hpp"
#include "sim/rng.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace ldla {
namespace {

using counter_names::field_sources;
using counter_names::FieldSource;
using counter_names::registry_sum;
using metrics::Histogram;

BitMatrix random_matrix(std::size_t snps, std::size_t samples,
                        std::uint64_t seed) {
  Rng rng(seed);
  BitMatrix m(snps, samples);
  for (std::size_t s = 0; s < snps; ++s) {
    for (std::size_t b = 0; b < samples; ++b) {
      if (rng.next_bool(0.4)) m.set(s, b, true);
    }
  }
  return m;
}

TEST(Metrics, CounterAggregatesAcrossStripesExactly) {
  metrics::set_enabled(true);
  metrics::Counter& c =
      metrics::counter("test_counter_total", "test counter");
  const std::uint64_t before = c.value();

  // Drive increments from many pool threads so multiple stripes are hit;
  // the scrape-side sum must still be exact.
  ThreadPool pool(4);
  constexpr std::uint64_t kPerTask = 10000;
  constexpr std::size_t kTasks = 16;
  pool.run_tasks(kTasks, [&](std::size_t) {
    for (std::uint64_t i = 0; i < kPerTask; ++i) c.inc();
  });
  EXPECT_EQ(c.value() - before, kPerTask * kTasks);
}

TEST(Metrics, RegistrationIsFindOrCreateByName) {
  metrics::Counter& a = metrics::counter("test_identity_total", "first");
  metrics::Counter& b = metrics::counter("test_identity_total", "second");
  EXPECT_EQ(&a, &b);
  EXPECT_STREQ(a.name(), "test_identity_total");
  // The first registration's help wins; re-registration does not clobber.
  EXPECT_STREQ(a.help(), "first");
}

TEST(Metrics, DisabledSwitchFreezesEverySinkKind) {
  metrics::set_enabled(true);
  metrics::Counter& c = metrics::counter("test_frozen_total", "t");
  metrics::Gauge& g = metrics::gauge("test_frozen_gauge", "t");
  Histogram& h = metrics::histogram("test_frozen_seconds", "t");
  g.set(7.5);
  const std::uint64_t c0 = c.value();
  const std::uint64_t h0 = h.count();

  metrics::set_enabled(false);
  EXPECT_FALSE(metrics::enabled());
  c.add(100);
  g.set(99.0);
  h.record_ns(1234);
  { metrics::ScopedLatency lat(h); }
  // The phase counters are registry counters, so the switch freezes them
  // too: a pooled run with packing and kernel work leaves snapshot() as is.
  const trace::PhaseCounters t0 = trace::snapshot().counters;
  {
    ThreadPool pool(3);
    pool.run_tasks(8, [](std::size_t) {});
    const BitMatrix m = random_matrix(40, 300, 3);
    (void)test::count_product(m.view(), m.view());
  }
  const trace::PhaseCounters t1 = trace::snapshot().counters;
  metrics::set_enabled(true);

  EXPECT_EQ(c.value(), c0);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  EXPECT_EQ(h.count(), h0);
  const auto before = trace::counter_fields(t0);
  const auto after = trace::counter_fields(t1);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].second, before[i].second) << before[i].first;
  }
}

TEST(Metrics, GaugeIsLastWriterWins) {
  metrics::set_enabled(true);
  metrics::Gauge& g = metrics::gauge("test_gauge", "t");
  g.set(std::uint64_t{42});
  EXPECT_DOUBLE_EQ(g.value(), 42.0);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(Metrics, HistogramBucketLayoutMatchesTheAnalyticScheme) {
  // Sub-32 values map exactly.
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(31), 31u);
  EXPECT_EQ(Histogram::bucket_lower(17), 17u);
  EXPECT_EQ(Histogram::bucket_upper(17), 18u);

  // First octave [32, 64): 16 sub-buckets of width 2.
  EXPECT_EQ(Histogram::bucket_index(32), 32u);
  EXPECT_EQ(Histogram::bucket_index(33), 32u);
  EXPECT_EQ(Histogram::bucket_index(34), 33u);
  EXPECT_EQ(Histogram::bucket_index(63), 47u);
  EXPECT_EQ(Histogram::bucket_lower(32), 32u);
  EXPECT_EQ(Histogram::bucket_upper(32), 34u);
  EXPECT_EQ(Histogram::bucket_lower(47), 62u);
  EXPECT_EQ(Histogram::bucket_upper(47), 64u);

  // Octave boundary: 64 starts the next 16-bucket group (width 4).
  EXPECT_EQ(Histogram::bucket_index(64), 48u);
  EXPECT_EQ(Histogram::bucket_index(67), 48u);
  EXPECT_EQ(Histogram::bucket_index(68), 49u);

  // Every bucket boundary round-trips through index/lower/upper, and the
  // quantization error bound (upper/lower <= 1 + 2^-4) holds.
  for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
    const std::uint64_t lo = Histogram::bucket_lower(i);
    const std::uint64_t hi = Histogram::bucket_upper(i);
    ASSERT_LT(lo, hi);
    ASSERT_EQ(Histogram::bucket_index(lo), i);
    ASSERT_EQ(Histogram::bucket_index(hi - 1), i);
    if (lo >= Histogram::kFirstBuckets && i + 1 < Histogram::kBucketCount) {
      ASSERT_LE(static_cast<double>(hi) / static_cast<double>(lo), 1.0625);
    }
  }

  // Clamp: anything at/above the tracked range lands in the last bucket.
  EXPECT_EQ(Histogram::bucket_index(Histogram::kMaxTracked),
            Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}),
            Histogram::kBucketCount - 1);
}

TEST(Metrics, HistogramQuantilesTrackAUniformDistribution) {
  metrics::set_enabled(true);
  Histogram& h = metrics::histogram("test_uniform_seconds", "t");
  ASSERT_EQ(h.count(), 0u) << "test requires a fresh histogram name";

  // 1000 samples uniform on [1us, 1ms]: quantile(q) ~= q * 1ms.
  constexpr std::uint64_t kN = 1000;
  constexpr std::uint64_t kStep = 1000;  // ns
  for (std::uint64_t i = 1; i <= kN; ++i) h.record_ns(i * kStep);
  EXPECT_EQ(h.count(), kN);
  EXPECT_NEAR(h.sum_seconds(), 5.005e-4 * static_cast<double>(kN), 1e-6);

  for (const double q : {0.50, 0.90, 0.99}) {
    const double expected = q * static_cast<double>(kN * kStep) * 1e-9;
    // Bucket quantization is <= 6.25% relative; interpolation keeps the
    // realized error well inside 8%.
    EXPECT_NEAR(h.quantile(q), expected, 0.08 * expected) << "q=" << q;
  }
  // Quantiles are monotone in q.
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
  EXPECT_LE(h.quantile(0.99), h.quantile(0.999));
}

TEST(Metrics, HistogramConcurrentWritersLoseNoSamples) {
  metrics::set_enabled(true);
  Histogram& h = metrics::histogram("test_stress_seconds", "t");
  const std::uint64_t before = h.count();
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 8;
  constexpr std::uint64_t kPerTask = 20000;
  pool.run_tasks(kTasks, [&](std::size_t t) {
    for (std::uint64_t i = 0; i < kPerTask; ++i) {
      h.record_ns(t * 1000 + i % 257);
    }
  });
  EXPECT_EQ(h.count() - before, kTasks * kPerTask);
}

TEST(Metrics, RenderJsonHasTheSchemaEnvelope) {
  metrics::set_enabled(true);
  metrics::counter("test_json_total", "j").add(3);
  metrics::gauge("test_json_gauge", "g").set(3.5);
  Histogram& h = metrics::histogram("test_json_seconds", "h");
  ASSERT_EQ(h.count(), 0u) << "test requires a fresh histogram name";
  h.record_ns(1500);
  const std::string out = metrics::render_json();
  EXPECT_EQ(out.find('{'), 0u);
  EXPECT_EQ(out.rfind('}'), out.size() - 1);
  EXPECT_NE(out.find("\"schema\": \"ldla-metrics-v1\""), std::string::npos);
  EXPECT_NE(out.find("\"counters\""), std::string::npos);
  EXPECT_NE(out.find("\"gauges\""), std::string::npos);
  EXPECT_NE(out.find("\"histograms\""), std::string::npos);
  EXPECT_NE(out.find("\"test_json_total\": {\"help\": \"j\", \"value\": 3}"),
            std::string::npos);
  EXPECT_NE(
      out.find("\"test_json_gauge\": {\"help\": \"g\", \"value\": 3.5}"),
      std::string::npos);

  // One sample: count 1, its sum in seconds, and one cumulative bucket
  // (the sample's) whose count equals the histogram's.
  const std::size_t at = out.find("\"test_json_seconds\": {");
  ASSERT_NE(at, std::string::npos);
  const std::string body = out.substr(at, out.find('}', at) + 1 - at);
  EXPECT_NE(body.find("\"count\": 1, \"sum_seconds\": 1.5e-06,"),
            std::string::npos)
      << body;
  char last_bucket[64];
  std::snprintf(last_bucket, sizeof last_bucket, "[[%.10g, 1]]}",
                static_cast<double>(Histogram::bucket_upper(
                    Histogram::bucket_index(1500))) *
                    1e-9);
  EXPECT_NE(body.find(std::string("\"buckets\": ") + last_bucket),
            std::string::npos)
      << body;
}

TEST(Metrics, ScopedLatencyRecordsOneSample) {
  metrics::set_enabled(true);
  Histogram& h = metrics::histogram("test_scoped_seconds", "t");
  const std::uint64_t before = h.count();
  {
    metrics::ScopedLatency lat(h);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(h.count(), before + 1);
  EXPECT_GE(h.sum_seconds(), 0.0005);
}

TEST(Telemetry, SnapshotReadsTheRegistry) {
  if (!trace::compiled()) GTEST_SKIP() << "built with LDLA_TRACE=OFF";
  metrics::set_enabled(true);

  // Dense packing, kernel and nest-steal work: a team-4 fused GEMM.
  const BitMatrix dense = random_matrix(96, 700, 41);
  GemmConfig cfg;
  cfg.kc_words = 8;
  cfg.mc = 16;
  cfg.nc = 16;
  const PackedBitMatrix p(dense.view(), gemm_plan_for(dense.view(), cfg),
                          PackSides::kBoth);
  gemm_count_fused(p, 0, 96, p, 0, 96, [](const CountTile&) {}, 4);

  // Sparse and hybrid tiles and the epilogue: a banded scan of a rare panel.
  MafSpectrumParams mp;
  mp.n_snps = 80;
  mp.n_samples = 400;
  mp.rare_fraction = 0.8;
  mp.rare_max_maf = 0.01;
  mp.seed = 43;
  const BitMatrix rare = simulate_maf_spectrum(mp);
  BandOptions band;
  band.gemm.sparse_threshold = kSparseThresholdAuto;
  ld_band_scan(rare, 20, [](const LdTile&) {}, band);

  // Shard I/O and prefetch outcomes: a prefetching stream over two shards.
  const std::string path = ::testing::TempDir() + "telemetry.ldshard";
  write_shard_store(path, dense.view(), cfg, /*rows_per_shard=*/48);
  ShardStore store = ShardStore::open(path);
  ld_matrix_stream(store, [](const LdTile&) {}, {});

  // Parked workers may still bump ldla_pool_parks_total; read the registry
  // on both sides of the snapshot until the two reads agree.
  const std::vector<FieldSource> sources = field_sources();
  const auto read_all = [&sources] {
    std::vector<std::uint64_t> v;
    for (const FieldSource& f : sources) v.push_back(registry_sum(f.names));
    return v;
  };
  std::vector<std::uint64_t> reg;
  trace::TraceSnapshot snap;
  for (int attempt = 0; attempt < 100; ++attempt) {
    reg = read_all();
    snap = trace::snapshot();
    if (read_all() == reg) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::string json = metrics::render_json();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(snap.counters.*sources[i].field, reg[i])
        << sources[i].names.front();
    for (const char* name : sources[i].names) {
      EXPECT_NE(json.find(std::string("\"") + name + "\": {"),
                std::string::npos)
          << name << " missing from render_json()";
    }
  }
  EXPECT_EQ(snap.counters.steals,
            metrics::counter("ldla_pool_steals_total", "").value() +
                metrics::counter("ldla_nest_steals_total", "").value());
  // The workloads above exercised every family of counters.
  EXPECT_GT(snap.counters.kernel_words, 0u);
  EXPECT_GT(snap.counters.list_intersections, 0u);
  EXPECT_GT(snap.counters.io_bytes_read, 0u);
  EXPECT_GT(snap.counters.prefetch_issued, 0u);
}

}  // namespace
}  // namespace ldla
