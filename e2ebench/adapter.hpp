// The benchmark's only door into the ldla library.
//
// Workloads, generators and checks call these functions and never a library
// entry point directly, so when the library's entry points change (for
// example several LD drivers folding into one) only adapter.cpp is edited.
// Every call that belongs to a measured layer opens a span named
// "<src module>.<call>" (spans.hpp); the span is a no-op unless the run is
// traced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ldla.hpp"

namespace e2e::lib {

using ldla::BitMatrix;
using ldla::LdMatrix;
using ldla::LdTile;
using ldla::OmegaPoint;
using ldla::PackedBitMatrix;
using ldla::ShardStore;

using TileVisitor = std::function<void(const LdTile&)>;

// ---- input generation (untimed) ------------------------------------------

struct Panel {
  BitMatrix genotypes;
  std::vector<double> positions;  ///< sorted, in [0, 1)
};

/// Linked haplotype panel from the Wright–Fisher-style copying simulator.
Panel simulate_linked(std::size_t snps, std::size_t haplotypes,
                      double min_freq, std::uint64_t seed);

/// Unlinked panel whose allele counts follow a rare-variant-heavy spectrum.
BitMatrix simulate_rare(std::size_t snps, std::size_t haplotypes,
                        double rare_fraction, std::uint64_t seed);

void write_ldm(const std::string& path, const BitMatrix& g);
void write_ms(const std::string& path, const Panel& p);

// ---- io layer --------------------------------------------------------------

BitMatrix parse_vcf(const std::string& path);              // vcf_lite.parse
Panel parse_ms(const std::string& path);                   // ms_format.parse
BitMatrix read_ldm(const std::string& path);               // ldm_binary.read
void write_store(const std::string& path, const BitMatrix& g,
                 std::size_t rows_per_shard);              // shard_store.write
ShardStore open_store(const std::string& path);            // shard_store.open

/// Appends stream tiles to an LDLATIL1 tile file (tile_store.add/close).
class TileWriter {
 public:
  TileWriter(const std::string& path, std::size_t n);
  void add(const LdTile& t);
  void close();
  [[nodiscard]] std::uint64_t payload_bytes() const;
  [[nodiscard]] std::uint64_t raw_bytes() const;

 private:
  ldla::TileStoreWriter w_;
};

/// Reads values back from a tile file; found[i] is false for a pair no
/// stored tile covers.
std::vector<double> read_tile_values(
    const std::string& path,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
    std::vector<bool>& found);

// ---- gemm layer ------------------------------------------------------------

/// Pack both operand sides for the machine's default plan, with the sparse
/// threshold resolved automatically (`sparse`) or disabled.   gemm.pack
PackedBitMatrix pack(const BitMatrix& g, unsigned threads, bool sparse = true);
[[nodiscard]] double sparse_col_frac(const PackedBitMatrix& p);
[[nodiscard]] std::size_t packed_bytes(const PackedBitMatrix& p);
[[nodiscard]] std::string kernel_name(const PackedBitMatrix& p);
[[nodiscard]] std::string kernel_name(const ShardStore& s);
[[nodiscard]] bool vector_kernel(const PackedBitMatrix& p);

/// Lower-triangle pair counts of the whole pack on one thread, into a
/// caller-held n×n count buffer.                                  gemm.count
void count_lower(const PackedBitMatrix& p, ldla::CountMatrix& c);

// ---- ld, parallel, stream, band and sweep layers -------------------------

/// Full n×n r² matrix with a team, over a caller-held pack. parallel.ld_matrix
LdMatrix dense_matrix(const BitMatrix& g, const PackedBitMatrix& p,
                      unsigned threads);
/// Canonical r² tiles straight from the fused epilogue, one thread.
void stat_scan(const BitMatrix& g, const PackedBitMatrix& p,
               const TileVisitor& visit);                     // ld.stat_scan
LdMatrix alloc_matrix(std::size_t n);                         // ld.alloc
void mirror(LdMatrix& m);                                     // ld.mirror
/// Lower-triangle r² tiles of a shard store, one thread, budgeted residency.
void stream(ShardStore& store, std::size_t budget_bytes,
            const TileVisitor& visit);                 // ld_stream.matrix_stream
/// Banded r² scan, one thread, over a caller-held pack.          band.scan
void band_scan(const BitMatrix& g, const PackedBitMatrix& p,
               std::size_t bandwidth, const TileVisitor& visit);
/// ω scan on one thread over a caller-held pack.          sweep_scan.omega_scan
std::vector<OmegaPoint> omega_scan(const BitMatrix& g,
                                   const std::vector<double>& positions,
                                   const PackedBitMatrix& p,
                                   std::size_t grid_points,
                                   std::size_t window_snps,
                                   const std::vector<std::size_t>& candidates);

// ---- oracles (baselines/naive) --------------------------------------------

/// r² of SNPs i and j from per-sample pair counts.
double naive_r2(const BitMatrix& g, std::size_t i, std::size_t j);
/// ω of the polymorphic SNPs of window [begin, end), from naive r².
double naive_window_omega(const BitMatrix& g, std::size_t begin,
                          std::size_t end, std::size_t* split);

// ---- host, plan and telemetry ----------------------------------------------

struct Counters {
  std::uint64_t io_bytes_read = 0;
  std::uint64_t prefetch_stalls = 0;
  std::uint64_t steals = 0;
  std::uint64_t parks = 0;
  std::uint64_t kernel_words = 0;
};
/// The library's own trace counters (zero when compiled out).
[[nodiscard]] Counters counters();
Counters operator-(const Counters& a, const Counters& b);
Counters& operator+=(Counters& a, const Counters& b);

/// Runtime switch of the library's always-on metrics.
void set_library_metrics(bool on);

[[nodiscard]] std::string cpu_summary();
[[nodiscard]] unsigned team_size();

struct Peak {
  double triples_per_s = 0.0;  ///< calibrated word-triples/s of the family
  double spread_pct = 0.0;     ///< disagreement of the two scalar estimates
};
/// Calibrated peak (the vector peak when `vector`), measured once per run.
[[nodiscard]] Peak peak(bool vector);

}  // namespace e2e::lib
