#include "adapter.hpp"

#include <cmath>
#include <utility>

#include "core/gemm/kernel.hpp"
#include "spans.hpp"
#include "util/cpu_info.hpp"
#include "util/metrics.hpp"
#include "util/peak.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace e2e::lib {

namespace {

ldla::GemmConfig gemm_config(bool sparse = true) {
  ldla::GemmConfig cfg;
  if (!sparse) cfg.sparse_threshold = 0;
  return cfg;
}

}  // namespace

// ---- input generation ------------------------------------------------------

Panel simulate_linked(std::size_t snps, std::size_t haplotypes,
                      double min_freq, std::uint64_t seed) {
  ldla::WrightFisherParams p;
  p.n_snps = snps;
  p.n_samples = haplotypes;
  p.min_freq = min_freq;
  p.seed = seed;
  ldla::SimulatedDataset d = ldla::simulate_wright_fisher(p);
  return Panel{std::move(d.genotypes), std::move(d.positions)};
}

BitMatrix simulate_rare(std::size_t snps, std::size_t haplotypes,
                        double rare_fraction, std::uint64_t seed) {
  ldla::MafSpectrumParams p;
  p.n_snps = snps;
  p.n_samples = haplotypes;
  p.rare_fraction = rare_fraction;
  p.seed = seed;
  return ldla::simulate_maf_spectrum(p);
}

void write_ldm(const std::string& path, const BitMatrix& g) {
  ldla::write_ldm_file(path, g);
}

void write_ms(const std::string& path, const Panel& p) {
  ldla::MsReplicate rep;
  rep.genotypes = p.genotypes.clone();
  rep.positions = p.positions;
  ldla::write_ms_file(path, rep);
}

// ---- io layer --------------------------------------------------------------

BitMatrix parse_vcf(const std::string& path) {
  const spans::Scope span("vcf_lite.parse");
  return std::move(ldla::parse_vcf_file(path).genotypes);
}

Panel parse_ms(const std::string& path) {
  const spans::Scope span("ms_format.parse");
  std::vector<ldla::MsReplicate> reps = ldla::parse_ms_file(path);
  if (reps.size() != 1) throw ldla::Error("ms input must hold one replicate");
  return Panel{std::move(reps[0].genotypes), std::move(reps[0].positions)};
}

BitMatrix read_ldm(const std::string& path) {
  const spans::Scope span("ldm_binary.read");
  return ldla::read_ldm_file(path);
}

void write_store(const std::string& path, const BitMatrix& g,
                 std::size_t rows_per_shard) {
  const spans::Scope span("shard_store.write");
  ldla::write_shard_store(path, g.view(), gemm_config(), rows_per_shard);
}

ShardStore open_store(const std::string& path) {
  const spans::Scope span("shard_store.open");
  return ldla::open_shard_store(path);
}

TileWriter::TileWriter(const std::string& path, std::size_t n)
    : w_(path, ldla::LdStatistic::kRSquared, n, n, ldla::TileCodec::kXor) {}

void TileWriter::add(const LdTile& t) {
  const spans::Scope span("tile_store.add");
  w_.add(t);
}

void TileWriter::close() {
  const spans::Scope span("tile_store.close");
  w_.close();
}

std::uint64_t TileWriter::payload_bytes() const { return w_.payload_bytes(); }
std::uint64_t TileWriter::raw_bytes() const { return w_.raw_bytes(); }

std::vector<double> read_tile_values(
    const std::string& path,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
    std::vector<bool>& found) {
  ldla::TileStoreReader reader(path);
  std::vector<double> out(pairs.size(), 0.0);
  found.assign(pairs.size(), false);
  for (std::size_t s = 0; s < pairs.size(); ++s) {
    found[s] = reader.find(pairs[s].first, pairs[s].second, &out[s]);
  }
  return out;
}

// ---- gemm layer ------------------------------------------------------------

PackedBitMatrix pack(const BitMatrix& g, unsigned threads, bool sparse) {
  const spans::Scope span("gemm.pack");
  return PackedBitMatrix::pack(g.view(), gemm_config(sparse),
                               ldla::PackSides::kBoth, threads);
}

double sparse_col_frac(const PackedBitMatrix& p) {
  return p.snps() == 0 ? 0.0
                       : static_cast<double>(p.sparse_columns().sparse_count) /
                             static_cast<double>(p.snps());
}

std::size_t packed_bytes(const PackedBitMatrix& p) {
  return p.packed_words() * sizeof(std::uint64_t);
}

std::string kernel_name(const PackedBitMatrix& p) {
  return ldla::kernel_for_plan(p.plan()).name;
}

std::string kernel_name(const ShardStore& s) {
  return ldla::kernel_for_plan(s.plan()).name;
}

bool vector_kernel(const PackedBitMatrix& p) {
  return p.plan().arch == ldla::KernelArch::kAvx512 ||
         p.plan().arch == ldla::KernelArch::kAvx512Wide;
}

void count_lower(const PackedBitMatrix& p, ldla::CountMatrix& c) {
  const spans::Scope span("gemm.count");
  ldla::syrk_count_packed(p, 0, p.snps(), c.ref(), /*triangular_only=*/true);
}

// ---- ld, parallel, stream, band and sweep layers -------------------------

LdMatrix dense_matrix(const BitMatrix& g, const PackedBitMatrix& p,
                      unsigned threads) {
  const spans::Scope span("parallel.ld_matrix");
  ldla::LdOptions opts;
  opts.packed = &p;
  return ldla::ld_matrix_parallel(g, opts, threads);
}

void stat_scan(const BitMatrix& g, const PackedBitMatrix& p,
               const TileVisitor& visit) {
  const spans::Scope span("ld.stat_scan");
  ldla::LdOptions opts;
  opts.packed = &p;
  ldla::ld_stat_scan(g, visit, opts);
}

LdMatrix alloc_matrix(std::size_t n) {
  const spans::Scope span("ld.alloc");
  return LdMatrix(n, n);
}

void mirror(LdMatrix& m) {
  const spans::Scope span("ld.mirror");
  ldla::mirror_ld_lower_to_upper(m);
}

void stream(ShardStore& store, std::size_t budget_bytes,
            const TileVisitor& visit) {
  const spans::Scope span("ld_stream.matrix_stream");
  ldla::StreamOptions opts;
  opts.cache_bytes = budget_bytes;
  opts.threads = 1;
  ldla::ld_matrix_stream(store, visit, opts);
}

void band_scan(const BitMatrix& g, const PackedBitMatrix& p,
               std::size_t bandwidth, const TileVisitor& visit) {
  const spans::Scope span("band.scan");
  ldla::BandOptions opts;
  opts.packed = &p;
  opts.gemm = gemm_config(p.plan().sparse_threshold != 0);
  opts.threads = 1;
  ldla::ld_band_scan(g, bandwidth, visit, opts);
}

std::vector<OmegaPoint> omega_scan(const BitMatrix& g,
                                   const std::vector<double>& positions,
                                   const PackedBitMatrix& p,
                                   std::size_t grid_points,
                                   std::size_t window_snps,
                                   const std::vector<std::size_t>& candidates) {
  const spans::Scope span("sweep_scan.omega_scan");
  ldla::SweepScanParams params;
  params.grid_points = grid_points;
  params.window_snps = window_snps;
  params.window_candidates = candidates;
  params.packed = &p;
  return ldla::omega_scan(g, positions, params);
}

// ---- oracles ---------------------------------------------------------------

double naive_r2(const BitMatrix& g, std::size_t i, std::size_t j) {
  return ldla::ld_r_squared(ldla::naive_pair_count(g, i, g, i),
                            ldla::naive_pair_count(g, j, g, j),
                            ldla::naive_pair_count(g, i, g, j), g.samples());
}

double naive_window_omega(const BitMatrix& g, std::size_t begin,
                          std::size_t end, std::size_t* split) {
  std::vector<std::size_t> keep;
  std::vector<std::uint64_t> counts;
  for (std::size_t s = begin; s < end; ++s) {
    const std::uint64_t c = ldla::naive_pair_count(g, s, g, s);
    if (c > 0 && c < g.samples()) {
      keep.push_back(s);
      counts.push_back(c);
    }
  }
  LdMatrix r2(keep.size(), keep.size());
  for (std::size_t a = 0; a < keep.size(); ++a) {
    for (std::size_t b = 0; b <= a; ++b) {
      const double v = ldla::ld_r_squared(
          counts[a], counts[b], ldla::naive_pair_count(g, keep[a], g, keep[b]),
          g.samples());
      r2(a, b) = v;
      r2(b, a) = v;
    }
  }
  const ldla::OmegaMax m = ldla::omega_max(r2);
  *split = m.split;
  return m.omega;
}

// ---- host, plan and telemetry ----------------------------------------------

Counters counters() {
  const ldla::trace::PhaseCounters c = ldla::trace::snapshot().counters;
  return Counters{c.io_bytes_read, c.prefetch_stalls, c.steals, c.parks,
                  c.kernel_words};
}

Counters operator-(const Counters& a, const Counters& b) {
  return Counters{a.io_bytes_read - b.io_bytes_read,
                  a.prefetch_stalls - b.prefetch_stalls, a.steals - b.steals,
                  a.parks - b.parks, a.kernel_words - b.kernel_words};
}

Counters& operator+=(Counters& a, const Counters& b) {
  a.io_bytes_read += b.io_bytes_read;
  a.prefetch_stalls += b.prefetch_stalls;
  a.steals += b.steals;
  a.parks += b.parks;
  a.kernel_words += b.kernel_words;
  return a;
}

void set_library_metrics(bool on) { ldla::metrics::set_enabled(on); }

std::string cpu_summary() { return ldla::cpu_summary(); }

unsigned team_size() { return ldla::default_thread_count(); }

Peak peak(bool vector) {
  const ldla::PeakEstimate& e = ldla::peak_estimate();
  Peak p;
  p.triples_per_s =
      vector && e.vector_triples_per_sec > 0.0 ? e.vector_triples_per_sec
                                               : e.scalar_triples_per_sec;
  p.spread_pct = e.core_hz > 0.0 ? 100.0 *
                                       std::fabs(e.scalar_triples_per_sec -
                                                 e.core_hz) /
                                       e.core_hz
                                 : 0.0;
  return p;
}

}  // namespace e2e::lib
