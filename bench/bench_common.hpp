// Shared infrastructure for the table/figure reproduction benches.
//
// Every bench runs in QUICK mode by default (problem sizes scaled down so
// the whole suite finishes in minutes on one core) and in the paper's full
// sizes when LDLA_FULL=1 is set in the environment.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ldla.hpp"
#include "sim/rng.hpp"
#include "util/annotations.hpp"
#include "util/metrics.hpp"
#include "util/sync.hpp"
#include "util/cpu_info.hpp"
#include "util/peak.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace ldla::bench {

inline bool full_mode() {
  const char* env = std::getenv("LDLA_FULL");
  return env != nullptr && env[0] == '1';
}

/// CI smoke mode (LDLA_SMOKE=1): one rep at sharply reduced sizes, just
/// enough to prove the bench binaries and the JSON emitter still work.
inline bool smoke_mode() {
  const char* env = std::getenv("LDLA_SMOKE");
  return env != nullptr && env[0] == '1';
}

/// Machine-readable bench results: collects rows and writes
/// `BENCH_<name>.json` (a JSON array of row objects) on flush/destruction,
/// into $LDLA_BENCH_JSON_DIR (default: current directory). Every row
/// carries the bench name, workload label, kernel, problem shape, wall
/// seconds, LDs (or word-triples) per second, and — where a calibrated
/// peak applies — the fraction of peak; scripts/run_all.sh collects the
/// files so the perf trajectory is trackable across commits.
///
/// Thread-safe: add() may be called from concurrent parallel-driver sinks;
/// the row list is mutex-guarded and the locking contract machine-checked
/// via the LDLA_GUARDED_BY annotations (thread-safety preset).
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;
  ~BenchJson() { flush(); }

  /// pct_peak < 0 (the default) means "no calibrated peak for this row"
  /// and is emitted as null.
  void add(const std::string& workload, const std::string& kernel,
           std::size_t snps, std::size_t samples, double seconds,
           double lds_per_sec, double pct_peak = -1.0) {
    const MutexLock lock(mu_);
    rows_.push_back(Row{workload, kernel, snps, samples, seconds, lds_per_sec,
                        pct_peak, false, trace::TraceSnapshot{},
                        std::numeric_limits<double>::quiet_NaN(), {}, {}});
  }

  /// Row with a per-phase breakdown: `phases` is the trace-snapshot delta
  /// captured around the timed workload (trace::snapshot().since(before)).
  /// Emitted as nested "phases" (self seconds per phase) and "counters"
  /// objects so compare_bench.py can diff phase breakdowns across commits.
  void add(const std::string& workload, const std::string& kernel,
           std::size_t snps, std::size_t samples, double seconds,
           double lds_per_sec, double pct_peak,
           const trace::TraceSnapshot& phases) {
    const MutexLock lock(mu_);
    rows_.push_back(Row{workload, kernel, snps, samples, seconds, lds_per_sec,
                        pct_peak, trace::compiled(), phases,
                        std::numeric_limits<double>::quiet_NaN(), {}, {}});
  }

  /// Annotate the most recently added row with its thread-scaling speedup
  /// relative to the same workload's single-thread run (emitted as
  /// "speedup_vs_1t"; rows never annotated emit null).
  void set_last_speedup(double speedup_vs_1t) {
    const MutexLock lock(mu_);
    if (!rows_.empty()) rows_.back().speedup_vs_1t = speedup_vs_1t;
  }

  /// Attach an extra field to the most recently added row, emitted as
  /// "key": value after the fixed fields. Numbers follow the null-for-
  /// non-finite rule; strings are escaped.
  void set_last_field(const std::string& key, double value) {
    const MutexLock lock(mu_);
    if (rows_.empty()) return;
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof buf, "%.9g", value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    rows_.back().fields.emplace_back(key, buf);
  }
  void set_last_field(const std::string& key, const std::string& value) {
    const MutexLock lock(mu_);
    if (rows_.empty()) return;
    std::string quoted(1, '"');
    quoted += escape(value);
    quoted += '"';
    rows_.back().fields.emplace_back(key, std::move(quoted));
  }

  /// Embed a metrics snapshot (metrics::render_json()) into the most
  /// recently added row; emitted verbatim under the "metrics" key so
  /// compare_bench.py and the CI overhead gate can read registry values
  /// per row. The string must be a complete JSON object.
  void annotate_last_metrics(const std::string& metrics_json) {
    const MutexLock lock(mu_);
    if (!rows_.empty()) rows_.back().metrics_json = metrics_json;
  }

  /// Writes the report once; later calls return the first outcome. True
  /// means "written, or nothing to write"; false means the file could not
  /// be produced (callers should fail their process on false).
  bool flush() {
    const MutexLock lock(mu_);
    if (flushed_) return flush_ok_;
    flushed_ = true;
    flush_ok_ = write_report();
    return flush_ok_;
  }

 private:
  struct Row {
    std::string workload;
    std::string kernel;
    std::size_t snps = 0;
    std::size_t samples = 0;
    double seconds = 0.0;
    double lds_per_sec = 0.0;
    double pct_peak = -1.0;
    bool has_phases = false;
    trace::TraceSnapshot phases;
    double speedup_vs_1t = std::numeric_limits<double>::quiet_NaN();
    std::string metrics_json;  ///< raw JSON object; empty = not annotated
    std::vector<std::pair<std::string, std::string>> fields;  ///< key, JSON
  };

  bool write_report() LDLA_REQUIRES(mu_) {
    if (rows_.empty()) return true;
    const char* dir = std::getenv("LDLA_BENCH_JSON_DIR");
    const std::string path =
        std::string(dir != nullptr ? dir : ".") + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchJson: cannot write %s\n", path.c_str());
      return false;
    }
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f,
                   "  {\"bench\": \"%s\", \"workload\": \"%s\", "
                   "\"kernel\": \"%s\", \"snps\": %zu, \"samples\": %zu, ",
                   escape(name_).c_str(), escape(r.workload).c_str(),
                   escape(r.kernel).c_str(), r.snps, r.samples);
      number(f, "seconds", r.seconds);
      std::fputs(", ", f);
      number(f, "lds_per_sec", r.lds_per_sec);
      std::fputs(", ", f);
      number(f, "pct_peak", r.pct_peak < 0.0 ? nan_value() : r.pct_peak);
      std::fputs(", ", f);
      number(f, "speedup_vs_1t", r.speedup_vs_1t);
      for (const auto& [key, value] : r.fields) {
        std::fprintf(f, ", \"%s\": %s", escape(key).c_str(), value.c_str());
      }
      if (r.has_phases) write_phases(f, r.phases);
      if (!r.metrics_json.empty()) {
        std::fprintf(f, ", \"metrics\": %s", r.metrics_json.c_str());
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    const bool ok = std::ferror(f) == 0;
    if (std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "BenchJson: write failed for %s\n", path.c_str());
      return false;
    }
    std::printf("\nwrote %s (%zu rows)\n", path.c_str(), rows_.size());
    return true;
  }

  static void write_phases(std::FILE* f, const trace::TraceSnapshot& s) {
    std::fputs(", \"phases\": {", f);
    for (std::size_t p = 0; p < trace::kPhaseCount; ++p) {
      const auto phase = static_cast<trace::Phase>(p);
      std::fprintf(f, "%s\"%s_s\": %.9g", p == 0 ? "" : ", ",
                   trace::phase_name(phase), s.phase_seconds(phase));
    }
    std::fputs("}, \"counters\": {", f);
    const char* sep = "";
    for (const auto& [key, value] : trace::counter_fields(s.counters)) {
      std::fprintf(f, "%s\"%s\": %llu", sep, key,
                   static_cast<unsigned long long>(value));
      sep = ", ";
    }
    std::fputs("}", f);
  }

  static double nan_value() {
    return std::numeric_limits<double>::quiet_NaN();
  }

  // JSON has no NaN/inf literals: emit null for non-finite values.
  static void number(std::FILE* f, const char* key, double v) {
    if (std::isfinite(v)) {
      std::fprintf(f, "\"%s\": %.9g", key, v);
    } else {
      std::fprintf(f, "\"%s\": null", key);
    }
  }

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
  }

  std::string name_;
  Mutex mu_;
  std::vector<Row> rows_ LDLA_GUARDED_BY(mu_);
  bool flushed_ LDLA_GUARDED_BY(mu_) = false;
  bool flush_ok_ LDLA_GUARDED_BY(mu_) = true;
};

/// Mirror one finished google-benchmark run (name shape
/// "<fixture>/<label>/<arg>") into a BenchJson row: workload = label,
/// samples = arg, rate from the benchmark's rate counter. Returns false
/// (row skipped) when the name does not have the expected shape.
inline bool add_gbench_row(BenchJson& json, const std::string& name,
                           const std::string& kernel, double real_seconds,
                           double rate) {
  const std::size_t first = name.find('/');
  const std::size_t last = name.rfind('/');
  if (first == std::string::npos || last == first) return false;
  const std::string label = name.substr(first + 1, last - first - 1);
  const std::size_t arg = std::stoul(name.substr(last + 1));
  json.add(label, kernel, 0, arg, real_seconds, rate);
  return true;
}

/// `--trace` CLI support (also honours LDLA_TRACE=1 in the environment, so
/// harnesses can turn tracing on without plumbing argv): starts a
/// span-buffering trace session named after the bench. The flag is removed
/// from argv (so argument-parsing frameworks never see it); the
/// Chrome-trace report lands in $LDLA_TRACE_DIR via finish_trace() (or at
/// exit).
inline bool maybe_start_trace(int& argc, char** argv, const char* bench_name) {
  bool want = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--trace") {
      want = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  const char* env = std::getenv("LDLA_TRACE");
  if (env != nullptr && env[0] == '1') want = true;
  if (!want) return false;
  if (!trace::compiled()) {
    std::fprintf(stderr,
                 "--trace requested but this binary was built with "
                 "-DLDLA_TRACE=OFF; no trace will be written\n");
    return false;
  }
  trace::start_session(bench_name);
  std::printf("tracing: session '%s' active (report at exit)\n", bench_name);
  return true;
}

/// Ends an active trace session and reports where the trace went. Returns
/// false when a session was active but the report could not be written.
inline bool finish_trace() {
  if (!trace::session_active()) return true;
  const std::string path = trace::stop_session_and_write();
  if (path.empty()) {
    std::fprintf(stderr, "trace: report write FAILED\n");
    return false;
  }
  std::printf("wrote %s (load in ui.perfetto.dev or chrome://tracing)\n",
              path.c_str());
  return true;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("machine:    %s\n", cpu_summary().c_str());
  std::printf("mode:       %s\n",
              full_mode() ? "FULL (paper sizes)"
                          : "QUICK (reduced sizes; set LDLA_FULL=1 for "
                            "paper sizes)");
  std::printf("==============================================================\n\n");
}

/// Random bit matrix filled word-at-a-time (the LD kernels are
/// data-oblivious, so uniform bits time identically to genomic data).
inline BitMatrix random_bits(std::size_t snps, std::size_t samples,
                             std::uint64_t seed) {
  Rng rng(seed);
  BitMatrix m(snps, samples);
  const std::size_t tail_bits = samples % 64;
  const std::uint64_t tail_mask =
      tail_bits == 0 ? ~std::uint64_t{0}
                     : ((std::uint64_t{1} << tail_bits) - 1);
  for (std::size_t s = 0; s < snps; ++s) {
    std::uint64_t* row = m.row_data(s);
    for (std::size_t w = 0; w < m.words_per_snp(); ++w) {
      row[w] = rng.next_u64();
    }
    row[m.words_per_snp() - 1] &= tail_mask;
  }
  return m;
}

struct CountScanResult {
  double seconds = 0.0;
  std::uint64_t pairs = 0;        ///< pair counts produced
  std::uint64_t word_triples = 0; ///< (AND, POPCNT, ADD) triples executed
  std::uint64_t checksum = 0;     ///< defeats dead-code elimination
};

/// Add the fused nest's tiles of rows [r0, r0 + c.rows) of `pa` against
/// columns [0, c.cols) of `pb` into C (row r0 lands in C's row 0).
inline void add_count_rows(const PackedBitMatrix& pa, std::size_t r0,
                           const PackedBitMatrix& pb, CountMatrixRef c) {
  gemm_count_fused(pa, r0, r0 + c.rows, pb, 0, c.cols,
                   [&](const CountTile& t) {
                     for (std::size_t i = 0; i < t.rows; ++i) {
                       std::uint32_t* dst =
                           &c.at(t.row_begin - r0 + i, t.col_begin);
                       for (std::size_t j = 0; j < t.cols; ++j) {
                         dst[j] += t.row(i)[j];
                       }
                     }
                   });
}

/// Time the symmetric haplotype-count computation (the H matrix of Figs.
/// 3/5 and the GEMM rows of Tables I-III): one pack of `g` per call, inside
/// the timer, then a streaming row-slab driver over row ranges of it, so
/// the count memory stays O(slab x n) for any problem size.
inline CountScanResult time_symmetric_counts(const BitMatrix& g,
                                             const GemmConfig& cfg,
                                             std::size_t slab_rows = 256) {
  CountScanResult out;
  const std::size_t n = g.snps();
  if (n == 0) return out;
  CountMatrix counts(std::min(slab_rows, n), n);
  Timer timer;
  const PackedBitMatrix packed = PackedBitMatrix::pack(g.view(), cfg);
  for (std::size_t r0 = 0; r0 < n; r0 += slab_rows) {
    const std::size_t rows = std::min(slab_rows, n - r0);
    const std::size_t cols = r0 + rows;
    CountMatrixRef cref{counts.ref().data, rows, cols, n};
    for (std::size_t i = 0; i < rows; ++i) {
      std::fill_n(&cref.at(i, 0), cols, 0u);
    }
    add_count_rows(packed, r0, packed, cref);
    out.checksum += cref.at(0, 0) + cref.at(rows - 1, cols - 1);
    out.pairs += static_cast<std::uint64_t>(rows) * cols;
  }
  out.seconds = timer.seconds();
  out.word_triples = out.pairs * g.words_per_snp();
  return out;
}

/// Time the rectangular (two-matrix) count GEMM of Fig. 4: one pack of
/// each operand per call, inside the timer, then row slabs of `a`.
inline CountScanResult time_cross_counts(const BitMatrix& a,
                                         const BitMatrix& b,
                                         const GemmConfig& cfg,
                                         std::size_t slab_rows = 256) {
  CountScanResult out;
  const std::size_t m = a.snps();
  const std::size_t n = b.snps();
  if (m == 0 || n == 0) return out;
  CountMatrix counts(std::min(slab_rows, m), n);
  Timer timer;
  const PackedBitMatrix pa =
      PackedBitMatrix::pack(a.view(), cfg, PackSides::kA);
  const PackedBitMatrix pb =
      PackedBitMatrix::pack(b.view(), cfg, PackSides::kB);
  for (std::size_t r0 = 0; r0 < m; r0 += slab_rows) {
    const std::size_t rows = std::min(slab_rows, m - r0);
    counts.zero();
    CountMatrixRef cref{counts.ref().data, rows, n, n};
    add_count_rows(pa, r0, pb, cref);
    out.checksum += cref.at(0, 0) + cref.at(rows - 1, n - 1);
    out.pairs += static_cast<std::uint64_t>(rows) * n;
  }
  out.seconds = timer.seconds();
  out.word_triples = out.pairs * a.words_per_snp();
  return out;
}

/// GEMM-engine all-pairs r^2 scan aggregate (the "GEMM" arm of the paper's
/// Tables I-III): time and LDs/second over the N(N+1)/2 canonical pairs.
struct LdScanTiming {
  double seconds = 0.0;
  std::uint64_t pairs = 0;
  double sum = 0.0;  ///< checksum (sum of finite r^2)
};

inline LdScanTiming time_gemm_ld_scan(const BitMatrix& g, unsigned threads,
                                      const GemmConfig& cfg) {
  LdScanTiming out;
  Mutex mu;
  LdOptions opts;
  opts.stat = LdStatistic::kRSquared;
  opts.gemm = cfg;
  Timer timer;
  // Stat tiles hold only canonical pairs; with a team they arrive
  // concurrently, so each call folds locally before taking the lock.
  ld_stat_scan(
      g,
      [&](const LdTile& tile) {
        double local = 0.0;
        for (std::size_t i = 0; i < tile.rows; ++i) {
          for (std::size_t j = 0; j < tile.cols; ++j) {
            const double v = tile.at(i, j);
            if (v == v) local += v;  // finite (NaN != NaN)
          }
        }
        const MutexLock lock(mu);
        out.sum += local;
        out.pairs += static_cast<std::uint64_t>(tile.rows) * tile.cols;
      },
      opts, threads);
  out.seconds = timer.seconds();
  return out;
}

/// Dump the metrics registry as metrics_<name>.json into
/// $LDLA_METRICS_DUMP_DIR when that variable is set (the bench-smoke CI job
/// and scripts/validate_telemetry.py --run set it). Returns false only when
/// a dump was requested and the write failed.
inline bool maybe_dump_metrics(const char* name) {
  const char* dir = std::getenv("LDLA_METRICS_DUMP_DIR");
  if (dir == nullptr || dir[0] == '\0') return true;
  const std::string path = std::string(dir) + "/metrics_" + name + ".json";
  if (!metrics::dump_json(path)) {
    std::fprintf(stderr, "metrics: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

inline std::string human_rate(double per_sec) {
  if (per_sec >= 1e9) return fmt_fixed(per_sec / 1e9, 2) + " G/s";
  if (per_sec >= 1e6) return fmt_fixed(per_sec / 1e6, 2) + " M/s";
  return fmt_fixed(per_sec / 1e3, 2) + " K/s";
}

}  // namespace ldla::bench
