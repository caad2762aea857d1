// Workload definitions and the measurement loop.
//
// One run = one workload in one process:
//   1. set-up several times (timed; the median is setup_s), resetting
//      untimed in between — file outputs are unlinked and the directory
//      fsynced, so no write-back of one repetition lands in the next;
//   2. the LD job in a closed loop, one at a time, until --seconds have
//      passed and at least kMinJobs ran (the fastest is job_s, see below);
//   3. after every job, untimed: the output check (seeded pairs against the
//      naive oracle, bit for bit) and a position-salted XOR checksum over
//      every emitted value, which must repeat exactly from job to job.
// A traced run does the same with spans around every library call, cycles
// the job through three modes (spans on, spans off, library metrics off) to
// price both instrumentation layers, then times per-layer controls.
#include "workloads.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "adapter.hpp"
#include "spans.hpp"

namespace e2e {

namespace {

// Set-up repeats at least kMinSetups times and until kSetupBudgetS have
// passed, so short set-ups still give a steady median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 21;
constexpr double kSetupBudgetS = 1.5;
constexpr int kMinJobs = 3;
constexpr std::size_t kCheckedPairs = 64;
constexpr double kMiB = 1024.0 * 1024.0;

using Pair = std::pair<std::size_t, std::size_t>;

double seconds_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

// job_s is the fastest job of the run, not the median. On the reference
// host (a shared VM) job times move between regimes up to 30 % apart that
// last 10-30 s, with no change in the code; a run's median lands in
// whichever regime dominated it, so medians of 25 s runs spread 17-24 %
// across runs, while the fastest job -- contention only ever adds time --
// spreads ~5 %. The median and every job time are in the fingerprint.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 != 0 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

std::uint64_t value_bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// One term of the position-salted XOR checksum (as in bench_stream.cpp):
// order-independent across tiles, sensitive to where each value sits.
std::uint64_t salted(double v, std::size_t i, std::size_t j) {
  return value_bits(v) + 0x9e3779b97f4a7c15ULL * i + 0xc2b2ae3d27d4eb4fULL * j;
}

std::uint64_t file_bytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

// Delete a scratch output and commit the unlink, so neither its dirty pages
// nor its metadata are written back during a later timed region.
void remove_synced(const std::string& path, const std::string& dir) {
  ::unlink(path.c_str());
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

// Seeded sample of canonical pairs (j <= i, i - j <= band).
std::vector<Pair> sample_pairs(std::uint64_t seed, std::size_t n,
                               std::size_t band) {
  std::mt19937_64 rng(seed ^ 0x5851f42d4c957f2dULL);
  std::vector<Pair> out;
  for (std::size_t s = 0; s < kCheckedPairs; ++s) {
    const std::size_t i = rng() % n;
    const std::size_t reach = std::min(i, band);
    out.emplace_back(i, i - rng() % (reach + 1));
  }
  return out;
}

// ---- metrics ---------------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

// Every per-layer metric, reported by every traced run; a layer a workload
// does not exercise reads 0 there.
std::vector<Metric> per_layer_table() {
  return {
      {"vcf_lite.parse_s", "s", 0},
      {"vcf_lite.parse_mib_per_s", "MiB/s", 0},
      {"ms_format.parse_s", "s", 0},
      {"ldm_binary.read_s", "s", 0},
      {"shard_store.write_s", "s", 0},
      {"shard_store.write_mib", "MiB", 0},
      {"shard_store.open_s", "s", 0},
      {"shard_store.peak_resident_mib", "MiB", 0},
      {"shard_store.budget_mib", "MiB", 0},
      {"ld_stream.compute_s", "s", 0},
      {"ld_stream.io_bytes_read", "B", 0},
      {"ld_stream.prefetch_stalls", "count", 0},
      {"tile_store.add_s", "s", 0},
      {"tile_store.close_s", "s", 0},
      {"tile_store.payload_mib", "MiB", 0},
      {"tile_store.codec_ratio", "ratio", 0},
      {"gemm.pack_s", "s", 0},
      {"gemm.pack_mib", "MiB", 0},
      {"gemm.sparse_col_frac", "ratio", 0},
      {"gemm.count_s", "s", 0},
      {"gemm.gtriples_per_s", "G/s", 0},
      {"gemm.pct_peak", "%", 0},
      {"gemm.peak_gtriples_per_s", "G/s", 0},
      {"gemm.peak_spread_pct", "%", 0},
      {"ld.pairs", "count", 0},
      {"ld.stat_scan_1t_s", "s", 0},
      {"ld.epilogue_s", "s", 0},
      {"ld.alloc_s", "s", 0},
      {"ld.mirror_s", "s", 0},
      {"parallel.matrix_1t_s", "s", 0},
      {"parallel.speedup", "x", 0},
      {"parallel.efficiency", "ratio", 0},
      {"thread_pool.steals", "count", 0},
      {"thread_pool.parks", "count", 0},
      {"band.scan_s", "s", 0},
      {"band.dense_control_s", "s", 0},
      {"band.sparse_speedup", "x", 0},
      {"sweep_scan.scan_s", "s", 0},
      {"sweep_scan.windows", "count", 0},
      {"sweep_scan.us_per_window", "us", 0},
      {"metrics.overhead_pct", "%", 0},
      {"trace.overhead_pct", "%", 0},
      {"vcf-to-tiles.covered_frac", "ratio", 0},
      {"dense-matrix.covered_frac", "ratio", 0},
      {"rare-band.covered_frac", "ratio", 0},
      {"omega-sweep.covered_frac", "ratio", 0},
  };
}

class Metrics {
 public:
  explicit Metrics(std::vector<Metric> table) : table_(std::move(table)) {}

  void set(const std::string& name, double value) {
    for (Metric& m : table_) {
      if (name == m.name) {
        m.value = std::isfinite(value) ? value : 0.0;
        return;
      }
    }
    throw std::logic_error("unknown metric " + name);
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < table_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", table_[i].name, table_[i].value,
                    table_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> table_;
};

/// Per-job span statistics of the traced jobs, averaged per job.
struct TracedJobs {
  std::map<std::string, double> self;   ///< self seconds per span name
  std::map<std::string, double> total;  ///< total seconds per span name
  lib::Counters counters;               ///< library counters, summed
  int jobs = 0;

  [[nodiscard]] double self_s(const std::string& n) const {
    auto it = self.find(n);
    return it == self.end() || jobs == 0 ? 0.0 : it->second / jobs;
  }
  [[nodiscard]] double total_s(const std::string& n) const {
    auto it = total.find(n);
    return it == total.end() || jobs == 0 ? 0.0 : it->second / jobs;
  }
  [[nodiscard]] double per_job(std::uint64_t v) const {
    return jobs == 0 ? 0.0 : static_cast<double>(v) / jobs;
  }
};

/// What a traced run hands a workload's per-layer report.
struct LayerInput {
  std::map<std::string, double> setup_total;  ///< per set-up, by span name
  TracedJobs traced;
  double job_s = 0.0;  ///< fastest untraced job wall
};

// ---- workloads --------------------------------------------------------------

class Workload {
 public:
  Workload(std::string dir, std::uint64_t seed)
      : dir_(std::move(dir)), seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Timed: read or parse the input and pack or ingest it.
  virtual void setup() = 0;
  /// Untimed: drop what setup() built and any file it wrote.
  virtual void reset() = 0;
  /// Timed: one LD job, consuming or writing every emitted value.
  virtual void job() = 0;
  /// Untimed: check the last job's output; sets checksum_ and lds_.
  /// `corrupt` damages one emitted value first (self-test hook).
  virtual bool check(bool corrupt) = 0;
  /// Untimed: delete the last job's outputs.
  virtual void after_job() {}
  /// Shapes, byte sizes and resolved kernel, as JSON members.
  [[nodiscard]] virtual std::string fingerprint() const = 0;
  /// Traced run: fill this workload's per-layer metrics.
  virtual void layers(Metrics& m, const LayerInput& in) = 0;

  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }
  [[nodiscard]] std::uint64_t lds() const { return lds_; }

 protected:
  std::string dir_;
  std::uint64_t seed_ = 0;
  std::uint64_t checksum_ = 0;
  std::uint64_t lds_ = 0;
};

// Compare sampled outputs with the oracle bit for bit.
bool same_bits(double got, double want) {
  return value_bits(got) == value_bits(want);
}

void flip_low_bit(double& v) {
  std::uint64_t b = value_bits(v) ^ 1;
  std::memcpy(&v, &b, sizeof v);
}

// vcf-to-tiles: VCF text -> shard store -> budgeted stream -> tile file.
class VcfToTiles final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    g_ = lib::parse_vcf(dir_ + "/" + kVcfInput);
    lib::write_store(store_path(), g_, (g_.snps() + 15) / 16);
    store_bytes_ = file_bytes(store_path());
    store_ = lib::open_store(store_path());
  }

  void reset() override {
    store_ = lib::ShardStore();
    g_ = lib::BitMatrix();
    remove_synced(store_path(), dir_);
  }

  void job() override {
    const std::size_t n = store_.snps();
    budget_ = std::max(4 * store_.max_shard_bytes(),
                       store_.total_payload_bytes() / 4);
    lib::TileWriter writer(tile_path(), n);
    std::uint64_t sum = 0;
    std::size_t peak = 0;
    lib::stream(store_, budget_, [&](const lib::LdTile& t) {
      const spans::Scope span("bench.visit");
      for (std::size_t i = 0; i < t.rows; ++i) {
        for (std::size_t j = 0; j < t.cols; ++j) {
          sum ^= salted(t.at(i, j), t.row_begin + i, t.col_begin + j);
        }
      }
      writer.add(t);
      peak = std::max(peak, store_.resident_bytes());
    });
    writer.close();
    checksum_ = sum;
    peak_resident_ = peak;
    payload_ = writer.payload_bytes();
    raw_ = writer.raw_bytes();
  }

  bool check(bool corrupt) override {
    const std::size_t n = g_.snps();
    lds_ = ldla::ld_pair_count(n);
    const std::vector<Pair> pairs = sample_pairs(seed_, n, n);
    std::vector<bool> found;
    std::vector<double> got = lib::read_tile_values(tile_path(), pairs, found);
    if (corrupt) flip_low_bit(got[0]);
    bool ok = peak_resident_ <= budget_ && raw_ == 8 * lds_;
    for (std::size_t s = 0; s < pairs.size(); ++s) {
      ok = ok && found[s] &&
           same_bits(got[s], lib::naive_r2(g_, pairs[s].first, pairs[s].second));
    }
    return ok;
  }

  void after_job() override { remove_synced(tile_path(), dir_); }

  [[nodiscard]] std::string fingerprint() const override {
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "\"kernel\": \"%s\", \"snps\": %zu, \"haplotypes\": %zu, "
        "\"input_bytes\": %llu, \"store_bytes\": %llu, \"shards\": %zu, "
        "\"budget_bytes\": %zu, \"tile_bytes\": %llu",
        lib::kernel_name(store_).c_str(), store_.snps(), store_.samples(),
        static_cast<unsigned long long>(file_bytes(dir_ + "/" + kVcfInput)),
        static_cast<unsigned long long>(store_bytes_), store_.shards(), budget_,
        static_cast<unsigned long long>(payload_));
    return buf;
  }

  void layers(Metrics& m, const LayerInput& in) override {
    const auto setup = [&](const char* n) {
      auto it = in.setup_total.find(n);
      return it == in.setup_total.end() ? 0.0 : it->second;
    };
    const double parse_s = setup("vcf_lite.parse");
    m.set("vcf_lite.parse_s", parse_s);
    m.set("vcf_lite.parse_mib_per_s",
          static_cast<double>(file_bytes(dir_ + "/" + kVcfInput)) / kMiB /
              parse_s);
    m.set("shard_store.write_s", setup("shard_store.write"));
    m.set("shard_store.write_mib", static_cast<double>(store_bytes_) / kMiB);
    m.set("shard_store.open_s", setup("shard_store.open"));
    m.set("shard_store.peak_resident_mib",
          static_cast<double>(peak_resident_) / kMiB);
    m.set("shard_store.budget_mib", static_cast<double>(budget_) / kMiB);
    const TracedJobs& t = in.traced;
    m.set("ld_stream.compute_s", t.self_s("ld_stream.matrix_stream"));
    m.set("ld_stream.io_bytes_read", t.per_job(t.counters.io_bytes_read));
    m.set("ld_stream.prefetch_stalls", t.per_job(t.counters.prefetch_stalls));
    m.set("tile_store.add_s", t.total_s("tile_store.add"));
    m.set("tile_store.close_s", t.total_s("tile_store.close"));
    m.set("tile_store.payload_mib", static_cast<double>(payload_) / kMiB);
    m.set("tile_store.codec_ratio",
          static_cast<double>(raw_) / static_cast<double>(payload_));
  }

 private:
  [[nodiscard]] std::string store_path() const {
    return dir_ + "/store.ldshard";
  }
  [[nodiscard]] std::string tile_path() const { return dir_ + "/out.ldtile"; }

  lib::BitMatrix g_;
  lib::ShardStore store_;
  std::uint64_t store_bytes_ = 0;
  std::size_t budget_ = 0;
  std::size_t peak_resident_ = 0;
  std::uint64_t payload_ = 0;
  std::uint64_t raw_ = 0;
};

// dense-matrix: .ldm -> team pack -> full n×n r² with the team.
class DenseMatrix final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    g_ = lib::read_ldm(dir_ + "/" + kLdmInput);
    pack_ = lib::pack(g_, lib::team_size());
  }

  void reset() override {
    pack_ = lib::PackedBitMatrix();
    g_ = lib::BitMatrix();
  }

  void job() override { m_ = lib::dense_matrix(g_, pack_, lib::team_size()); }

  bool check(bool corrupt) override {
    const std::size_t n = g_.snps();
    lds_ = ldla::ld_pair_count(n);
    const std::vector<Pair> pairs = sample_pairs(seed_, n, n);
    if (corrupt) flip_low_bit(m_(pairs[0].first, pairs[0].second));
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) sum ^= salted(m_(i, j), i, j);
    }
    checksum_ = sum;
    bool ok = m_.rows() == n && m_.cols() == n;
    for (const auto& [i, j] : pairs) {
      const double want = lib::naive_r2(g_, i, j);
      ok = ok && same_bits(m_(i, j), want) && same_bits(m_(j, i), want);
    }
    return ok;
  }

  void after_job() override { m_ = lib::LdMatrix(); }

  [[nodiscard]] std::string fingerprint() const override {
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "\"kernel\": \"%s\", \"snps\": %zu, \"haplotypes\": %zu, "
                  "\"input_bytes\": %llu, \"packed_bytes\": %zu, "
                  "\"result_bytes\": %zu",
                  lib::kernel_name(pack_).c_str(), g_.snps(), g_.samples(),
                  static_cast<unsigned long long>(
                      file_bytes(dir_ + "/" + kLdmInput)),
                  lib::packed_bytes(pack_), g_.snps() * g_.snps() * 8);
    return buf;
  }

  void layers(Metrics& m, const LayerInput& in) override {
    const std::size_t n = g_.snps();
    const unsigned team = lib::team_size();
    m.set("ldm_binary.read_s", in.setup_total.at("ldm_binary.read"));
    m.set("gemm.pack_s", in.setup_total.at("gemm.pack"));
    m.set("gemm.pack_mib", static_cast<double>(lib::packed_bytes(pack_)) / kMiB);
    m.set("gemm.sparse_col_frac", lib::sparse_col_frac(pack_));
    const TracedJobs& t = in.traced;
    m.set("thread_pool.steals", t.per_job(t.counters.steals));
    m.set("thread_pool.parks", t.per_job(t.counters.parks));

    // Controls: the same job on one thread, then its layers one at a time.
    std::uint64_t t0 = spans::now_ns();
    { const lib::LdMatrix one = lib::dense_matrix(g_, pack_, 1); }
    const double one_s = seconds_between(t0, spans::now_ns());
    m.set("parallel.matrix_1t_s", one_s);
    m.set("parallel.speedup", one_s / in.job_s);
    m.set("parallel.efficiency", one_s / in.job_s / team);

    {
      ldla::CountMatrix c(n, n);
      const lib::Counters before = lib::counters();
      t0 = spans::now_ns();
      lib::count_lower(pack_, c);
      const double count_s = seconds_between(t0, spans::now_ns());
      const double words =
          static_cast<double>((lib::counters() - before).kernel_words);
      const lib::Peak peak = lib::peak(lib::vector_kernel(pack_));
      m.set("gemm.count_s", count_s);
      m.set("gemm.gtriples_per_s", words / count_s * 1e-9);
      m.set("gemm.pct_peak", 100.0 * words / count_s / peak.triples_per_s);

      std::uint64_t values = 0;
      t0 = spans::now_ns();
      lib::stat_scan(g_, pack_, [&](const lib::LdTile& tile) {
        values += tile.rows * tile.cols;
      });
      const double scan_s = seconds_between(t0, spans::now_ns());
      if (values != ldla::ld_pair_count(n)) {
        throw std::runtime_error("stat scan missed canonical pairs");
      }
      m.set("ld.stat_scan_1t_s", scan_s);
      m.set("ld.epilogue_s", scan_s - count_s);
    }

    t0 = spans::now_ns();
    lib::LdMatrix zero = lib::alloc_matrix(n);
    const std::uint64_t t1 = spans::now_ns();
    lib::mirror(zero);
    m.set("ld.alloc_s", seconds_between(t0, t1));
    m.set("ld.mirror_s", seconds_between(t1, spans::now_ns()));
  }

 private:
  lib::BitMatrix g_;
  lib::PackedBitMatrix pack_;
  lib::LdMatrix m_;
};

// rare-band: rare-variant .ldm -> auto-threshold pack -> banded r² scan.
class RareBand final : public Workload {
 public:
  using Workload::Workload;
  static constexpr std::size_t kBandwidth = 500;

  void setup() override {
    g_ = lib::read_ldm(dir_ + "/" + kLdmInput);
    pack_ = lib::pack(g_, 1);
  }

  void reset() override {
    pack_ = lib::PackedBitMatrix();
    g_ = lib::BitMatrix();
  }

  void job() override { checksum_ = scan(pack_, pairs()); }

  bool check(bool corrupt) override {
    if (corrupt) flip_low_bit(sampled_[0]);
    bool ok = values_ == band_pairs();
    lds_ = values_;
    const std::vector<Pair>& p = pairs();
    for (std::size_t s = 0; s < p.size(); ++s) {
      ok = ok && same_bits(sampled_[s], lib::naive_r2(g_, p[s].first,
                                                      p[s].second));
    }
    return ok;
  }

  [[nodiscard]] std::string fingerprint() const override {
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "\"kernel\": \"%s\", \"snps\": %zu, \"haplotypes\": %zu, "
                  "\"input_bytes\": %llu, \"packed_bytes\": %zu, "
                  "\"bandwidth\": %zu, \"sparse_col_frac\": %.6f, "
                  "\"finite_sum\": %.6f",
                  lib::kernel_name(pack_).c_str(), g_.snps(), g_.samples(),
                  static_cast<unsigned long long>(
                      file_bytes(dir_ + "/" + kLdmInput)),
                  lib::packed_bytes(pack_), kBandwidth,
                  lib::sparse_col_frac(pack_), finite_sum_);
    return buf;
  }

  void layers(Metrics& m, const LayerInput& in) override {
    m.set("ldm_binary.read_s", in.setup_total.at("ldm_binary.read"));
    m.set("gemm.pack_s", in.setup_total.at("gemm.pack"));
    m.set("gemm.pack_mib", static_cast<double>(lib::packed_bytes(pack_)) / kMiB);
    m.set("gemm.sparse_col_frac", lib::sparse_col_frac(pack_));
    const double scan_s = in.traced.total_s("band.scan");
    m.set("band.scan_s", scan_s);
    // Control: the same scan over a dense-only pack (threshold 0).
    const lib::PackedBitMatrix dense = lib::pack(g_, 1, /*sparse=*/false);
    const std::uint64_t t0 = spans::now_ns();
    scan(dense, pairs());
    const double dense_s = seconds_between(t0, spans::now_ns());
    m.set("band.dense_control_s", dense_s);
    m.set("band.sparse_speedup", dense_s / scan_s);
  }

 private:
  const std::vector<Pair>& pairs() {
    if (pairs_.empty()) pairs_ = sample_pairs(seed_, g_.snps(), kBandwidth);
    return pairs_;
  }

  [[nodiscard]] std::uint64_t band_pairs() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < g_.snps(); ++i) {
      total += std::min(i, kBandwidth) + 1;
    }
    return total;
  }

  // The job body: sum the finite in-band values, checksum them, and keep
  // the sampled pairs' values for the check.
  std::uint64_t scan(const lib::PackedBitMatrix& p,
                     const std::vector<Pair>& pairs) {
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
    double finite = 0.0;
    sampled_.assign(pairs.size(), 0.0);
    lib::band_scan(g_, p, kBandwidth, [&](const lib::LdTile& t) {
      const spans::Scope span("bench.visit");
      for (std::size_t i = 0; i < t.rows; ++i) {
        const std::size_t gi = t.row_begin + i;
        const std::size_t lo = gi > kBandwidth ? gi - kBandwidth : 0;
        const std::size_t j0 = std::max(lo, t.col_begin);
        const std::size_t j1 = std::min(gi + 1, t.col_begin + t.cols);
        for (std::size_t gj = j0; gj < j1; ++gj) {
          const double v = t.at(i, gj - t.col_begin);
          if (std::isfinite(v)) finite += v;
          sum ^= salted(v, gi, gj);
          ++count;
        }
      }
      for (std::size_t s = 0; s < pairs.size(); ++s) {
        const auto [i, j] = pairs[s];
        if (i >= t.row_begin && i < t.row_begin + t.rows &&
            j >= t.col_begin && j < t.col_begin + t.cols) {
          sampled_[s] = t.at(i - t.row_begin, j - t.col_begin);
        }
      }
    });
    values_ = count;
    finite_sum_ = finite;
    return sum;
  }

  lib::BitMatrix g_;
  lib::PackedBitMatrix pack_;
  std::vector<Pair> pairs_;
  std::vector<double> sampled_;
  std::uint64_t values_ = 0;
  double finite_sum_ = 0.0;
};

// omega-sweep: ms replicate -> pack -> ω over a grid with window search.
class OmegaSweep final : public Workload {
 public:
  using Workload::Workload;
  static constexpr std::size_t kGridPoints = 2000;
  static constexpr std::size_t kWindow = 40;
  inline static const std::vector<std::size_t> kCandidates = {10, 20, 60, 80};
  // Each naive ω window costs ~40 ms, so a job checks two grid points and
  // successive jobs check different ones.
  static constexpr std::size_t kCheckedPoints = 2;

  void setup() override {
    panel_ = lib::parse_ms(dir_ + "/" + kMsInput);
    pack_ = lib::pack(panel_.genotypes, 1);
  }

  void reset() override {
    pack_ = lib::PackedBitMatrix();
    panel_ = lib::Panel();
  }

  void job() override {
    points_ = lib::omega_scan(panel_.genotypes, panel_.positions, pack_,
                              kGridPoints, kWindow, kCandidates);
  }

  bool check(bool corrupt) override {
    if (points_.size() != kGridPoints) return false;
    std::mt19937_64 rng(seed_ ^ 0x2545f4914f6cdd1dULL ^ checks_++);
    std::vector<std::size_t> checked;
    for (std::size_t s = 0; s < kCheckedPoints; ++s) {
      checked.push_back(rng() % points_.size());
    }
    if (corrupt) flip_low_bit(points_[checked[0]].omega);
    std::uint64_t sum = 0;
    for (std::size_t p = 0; p < points_.size(); ++p) {
      const lib::OmegaPoint& o = points_[p];
      sum ^= salted(o.omega, o.window_begin, o.window_end) +
             0xd6e8feb86659fd93ULL * (p + o.best_split);
    }
    checksum_ = sum;
    count_windows();
    lds_ = window_pairs_;
    bool ok = true;
    for (const std::size_t p : checked) {
      const lib::OmegaPoint& o = points_[p];
      std::size_t split = 0;
      const double want = lib::naive_window_omega(
          panel_.genotypes, o.window_begin, o.window_end, &split);
      ok = ok && same_bits(o.omega, want) && split == o.best_split;
    }
    return ok;
  }

  [[nodiscard]] std::string fingerprint() const override {
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "\"kernel\": \"%s\", \"snps\": %zu, \"haplotypes\": %zu, "
                  "\"input_bytes\": %llu, \"packed_bytes\": %zu, "
                  "\"grid_points\": %zu, \"windows\": %llu",
                  lib::kernel_name(pack_).c_str(), panel_.genotypes.snps(),
                  panel_.genotypes.samples(),
                  static_cast<unsigned long long>(
                      file_bytes(dir_ + "/" + kMsInput)),
                  lib::packed_bytes(pack_), kGridPoints,
                  static_cast<unsigned long long>(windows_));
    return buf;
  }

  void layers(Metrics& m, const LayerInput& in) override {
    m.set("ms_format.parse_s", in.setup_total.at("ms_format.parse"));
    m.set("gemm.pack_s", in.setup_total.at("gemm.pack"));
    m.set("gemm.pack_mib", static_cast<double>(lib::packed_bytes(pack_)) / kMiB);
    m.set("gemm.sparse_col_frac", lib::sparse_col_frac(pack_));
    const double scan_s = in.traced.total_s("sweep_scan.omega_scan");
    m.set("sweep_scan.scan_s", scan_s);
    m.set("sweep_scan.windows", static_cast<double>(windows_));
    m.set("sweep_scan.us_per_window",
          1e6 * scan_s / static_cast<double>(windows_));
  }

 private:
  // Windows the scan evaluates and the LD values they produce, from the
  // window rule of the ω scan: every grid point centres each half-width
  // (the default and each candidate) on its position; windows under four
  // SNPs are skipped.
  void count_windows() {
    if (windows_ != 0) return;
    const std::vector<double>& pos = panel_.positions;
    const std::size_t n = pos.size();
    std::vector<std::size_t> halves = {kWindow};
    for (std::size_t h : kCandidates) {
      if (h != kWindow && h >= 2) halves.push_back(h);
    }
    for (std::size_t gp = 0; gp < kGridPoints; ++gp) {
      const double x = (static_cast<double>(gp) + 0.5) / kGridPoints;
      const auto center = static_cast<std::size_t>(
          std::lower_bound(pos.begin(), pos.end(), x) - pos.begin());
      for (std::size_t h : halves) {
        const std::size_t b = center > h ? center - h : 0;
        const std::size_t e = std::min(n, center + h);
        if (e - b < 4) continue;
        ++windows_;
        window_pairs_ += ldla::ld_pair_count(e - b);
      }
    }
  }

  lib::Panel panel_;
  lib::PackedBitMatrix pack_;
  std::vector<lib::OmegaPoint> points_;
  std::uint64_t checks_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t window_pairs_ = 0;
};

std::unique_ptr<Workload> make_workload(const RunOptions& o) {
  std::unique_ptr<Workload> w;
  if (o.workload == "vcf-to-tiles") {
    w = std::make_unique<VcfToTiles>(o.dir, o.seed);
  } else if (o.workload == "dense-matrix") {
    w = std::make_unique<DenseMatrix>(o.dir, o.seed);
  } else if (o.workload == "rare-band") {
    w = std::make_unique<RareBand>(o.dir, o.seed);
  } else if (o.workload == "omega-sweep") {
    w = std::make_unique<OmegaSweep>(o.dir, o.seed);
  } else {
    throw std::invalid_argument("unknown workload: " + o.workload);
  }
  return w;
}

double peak_rss_mib() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

enum class Mode { kPlain, kSpans, kMetricsOff };

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool known_workload(const std::string& name) {
  return std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const char* w) { return name == w; });
}

int run(const RunOptions& o) {
  std::unique_ptr<Workload> w = make_workload(o);
  int attempted = 0;
  int failed = 0;
  std::string notes;

  // ---- set-up, repeated --------------------------------------------------
  if (o.trace) spans::set_enabled(true);
  const std::size_t setup_mark = spans::mark();
  std::vector<double> setup_s;
  const std::uint64_t setup_start = spans::now_ns();
  for (int r = 0; r < kMaxSetups; ++r) {
    if (r >= kMinSetups &&
        seconds_between(setup_start, spans::now_ns()) >= kSetupBudgetS) {
      break;
    }
    if (r > 0) {
      w->reset();
      // Hand freed heap back so the repetitions do not stack up in the
      // peak RSS: one set-up is what a user's process holds.
      ::malloc_trim(0);
    }
    const std::uint64_t t0 = spans::now_ns();
    w->setup();
    setup_s.push_back(seconds_between(t0, spans::now_ns()));
  }
  const auto setups = static_cast<double>(setup_s.size());
  LayerInput layer_in;
  for (const auto& [name, s] :
       spans::total_seconds(spans::snapshot(), setup_mark)) {
    layer_in.setup_total[name] = s / setups;
  }
  spans::set_enabled(false);

  // ---- job loop ---------------------------------------------------------
  // A traced run spends half its budget here (the rest goes to controls),
  // cycling spans-on / plain / library-metrics-off jobs.
  const double budget = o.trace ? 0.5 * o.seconds : o.seconds;
  std::map<Mode, std::vector<double>> times;
  std::optional<std::uint64_t> first_checksum;
  std::vector<double> covered;
  const int min_jobs = o.trace ? 2 * kMinJobs : kMinJobs;
  const std::uint64_t loop_start = spans::now_ns();
  for (int k = 0;; ++k) {
    if (k >= min_jobs &&
        seconds_between(loop_start, spans::now_ns()) >= budget) {
      break;
    }
    const Mode mode = o.trace ? static_cast<Mode>(k % 3) : Mode::kPlain;
    if (mode == Mode::kSpans) spans::set_enabled(true);
    if (mode == Mode::kMetricsOff) lib::set_library_metrics(false);
    const std::size_t mark = spans::mark();
    const lib::Counters before = lib::counters();
    bool ok = true;
    const std::uint64_t t0 = spans::now_ns();
    std::uint64_t t1 = t0;
    try {
      {
        const spans::Scope span("job");
        w->job();
      }
      t1 = spans::now_ns();
    } catch (const std::exception& e) {
      ok = false;
      notes += std::string("job threw: ") + e.what() + "; ";
    }
    const lib::Counters delta = lib::counters() - before;
    spans::set_enabled(false);
    lib::set_library_metrics(true);
    ++attempted;
    try {
      ok = ok && w->check(o.corrupt);
    } catch (const std::exception& e) {
      ok = false;
      notes += std::string("check threw: ") + e.what() + "; ";
    }
    if (ok && first_checksum && *first_checksum != w->checksum()) {
      ok = false;
      notes += "checksum changed between jobs; ";
    }
    if (ok && !first_checksum) first_checksum = w->checksum();
    if (!ok) ++failed;
    w->after_job();
    ::malloc_trim(0);
    if (!ok) continue;
    const double job_s = seconds_between(t0, t1);
    times[mode].push_back(job_s);
    if (mode == Mode::kSpans) {
      const std::vector<spans::Span> all = spans::snapshot();
      TracedJobs& t = layer_in.traced;
      // Covered: self time of every library span inside the job, over the
      // job wall; the rest is the benchmark's own code ("job", "bench.*").
      double library = 0.0;
      for (const auto& [name, s] : spans::self_seconds(all, mark)) {
        t.self[name] += s;
        if (name != "job" && name.rfind("bench.", 0) != 0) library += s;
      }
      for (const auto& [name, s] : spans::total_seconds(all, mark)) {
        t.total[name] += s;
      }
      t.counters += delta;
      ++t.jobs;
      covered.push_back(library / job_s);
    }
  }

  const double job_s = fastest(times[Mode::kPlain]);
  const bool correct = failed == 0 && attempted > 0;
  const lib::Peak peak = lib::peak(true);

  // ---- metrics -----------------------------------------------------------
  std::string metrics;
  if (!o.trace) {
    Metrics m({{"setup_s", "s", 0},
               {"job_s", "s", 0},
               {"lds_per_s", "LD/s", 0},
               {"peak_rss_mib", "MiB", 0}});
    m.set("setup_s", median(setup_s));
    m.set("job_s", job_s);
    m.set("lds_per_s", static_cast<double>(w->lds()) / job_s);
    m.set("peak_rss_mib", peak_rss_mib());
    metrics = m.json();
  } else {
    Metrics m(per_layer_table());
    layer_in.job_s = job_s;
    if (correct) w->layers(m, layer_in);
    m.set("ld.pairs", static_cast<double>(w->lds()));
    m.set("gemm.peak_gtriples_per_s", peak.triples_per_s * 1e-9);
    m.set("gemm.peak_spread_pct", peak.spread_pct);
    const double traced = fastest(times[Mode::kSpans]);
    const double metrics_off = fastest(times[Mode::kMetricsOff]);
    m.set("trace.overhead_pct", 100.0 * (traced - job_s) / job_s);
    m.set("metrics.overhead_pct", 100.0 * (job_s - metrics_off) / metrics_off);
    m.set(o.workload + ".covered_frac", median(covered));
    metrics = m.json();
    const double uncovered = 1.0 - median(covered);
    const TracedJobs& t = layer_in.traced;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "uncovered %.4f of job wall: benchmark loop %.6f s, "
                  "visitor bodies %.6f s per job; ",
                  uncovered, t.self_s("job"), t.self_s("bench.visit"));
    notes += buf;
    if (!o.spans_out.empty() &&
        !spans::write_json(o.spans_out, spans::snapshot())) {
      notes += "could not write spans; ";
    }
  }

  // ---- fingerprint and result ---------------------------------------------
  std::string all_jobs;
  for (const double t : times[Mode::kPlain]) {
    all_jobs += (all_jobs.empty() ? "" : ", ") + std::to_string(t);
  }
  std::printf(
      "{\"fingerprint\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"host\": \"%s\", \"nproc\": %u, \"team\": %u, %s, "
      "\"peak_gtriples_per_s\": %.4f, \"peak_spread_pct\": %.3f, "
      "\"setups\": %zu, \"jobs\": %zu, \"job_s_median\": %.6f, "
      "\"job_s_all\": [%s], "
      "\"lds\": %llu, \"checksum\": \"%016llx\", \"notes\": \"%s\"}}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      json_escape(lib::cpu_summary()).c_str(), std::thread::hardware_concurrency(),
      lib::team_size(), w->fingerprint().c_str(), peak.triples_per_s * 1e-9,
      peak.spread_pct, setup_s.size(), times[Mode::kPlain].size(),
      median(times[Mode::kPlain]), all_jobs.c_str(),
      static_cast<unsigned long long>(w->lds()),
      static_cast<unsigned long long>(first_checksum.value_or(0)),
      json_escape(notes).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  w->reset();
  return 0;
}

}  // namespace e2e
