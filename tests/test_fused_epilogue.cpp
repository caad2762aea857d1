// Property sweep for the fused statistics epilogue: every LD driver writes
// statistics straight from hot count tiles, and must match the naive
// oracle bit-for-bit across stat x kernel arch x blocking params x ragged
// shapes x unaligned band and omega windows x sequential/parallel drivers.
// The band scan must emit exactly its in-band pairs, and the stat scans
// every pair exactly once at any team size.
#include "core/ld.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/band.hpp"
#include "core/gemm/kernel.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/syrk.hpp"
#include "core/parallel.hpp"
#include "naive_oracle.hpp"
#include "omega/sweep_scan.hpp"
#include "sim/rng.hpp"

namespace ldla {
namespace {

using oracle::same_value;

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

// Ragged shapes, none a multiple of any register tile; sample counts off
// word boundaries so padding words are always in play.
const std::vector<std::pair<std::size_t, std::size_t>> kShapes = {
    {5, 100}, {33, 323}, {70, 129}, {128, 1000}};

constexpr std::array<LdStatistic, 3> kStats = {
    LdStatistic::kD, LdStatistic::kDPrime, LdStatistic::kRSquared};

constexpr std::array<unsigned, 2> kTeams = {2u, 4u};

std::vector<GemmConfig> blocking_configs(KernelArch arch) {
  std::vector<GemmConfig> cfgs(3);
  cfgs[1].kc_words = 2;
  cfgs[1].mc = 8;
  cfgs[1].nc = 8;
  cfgs[2].kc_words = 3;
  cfgs[2].mc = 24;
  cfgs[2].nc = 16;
  for (GemmConfig& cfg : cfgs) cfg.arch = arch;
  return cfgs;
}

void expect_same_matrix(const LdMatrix& got, const LdMatrix& want,
                        const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) {
      ASSERT_TRUE(same_value(got(i, j), want(i, j)))
          << what << " at (" << i << "," << j << ")";
    }
  }
}

// Every pair a stat scan emits, keyed by global (row, col), with a flag for
// pairs emitted twice. The visitor may be called concurrently.
struct PairSink {
  std::mutex mu;
  std::map<std::pair<std::size_t, std::size_t>, double> seen;
  bool duplicate = false;

  LdTileVisitor visitor() {
    return [this](const LdTile& tile) {
      const std::lock_guard lock(mu);
      for (std::size_t i = 0; i < tile.rows; ++i) {
        for (std::size_t j = 0; j < tile.cols; ++j) {
          const auto key = std::pair(tile.row_begin + i, tile.col_begin + j);
          duplicate |= !seen.emplace(key, tile.at(i, j)).second;
        }
      }
    };
  }
};

// The sink holds every pair of `want` exactly once — only the canonical
// ones, 0 <= i - j <= bandwidth, when `canonical` — and nothing else, each
// with the oracle's exact bits.
void expect_pairs_match(const PairSink& sink, const LdMatrix& want,
                        bool canonical, const char* what,
                        std::size_t bandwidth = kUnboundedBand) {
  EXPECT_FALSE(sink.duplicate) << what << ": duplicate pair";
  std::size_t pairs = want.rows() * want.cols();
  if (canonical) {
    pairs = 0;
    for (std::size_t i = 0; i < want.rows(); ++i) {
      pairs += std::min(i, bandwidth) + 1;
    }
  }
  ASSERT_EQ(sink.seen.size(), pairs) << what;
  for (const auto& [key, v] : sink.seen) {
    ASSERT_TRUE(!canonical || (key.second <= key.first &&
                               key.first - key.second <= bandwidth))
        << what << ": entry (" << key.first << "," << key.second
        << ") outside the canonical band";
    ASSERT_TRUE(key.first < want.rows() && key.second < want.cols()) << what;
    ASSERT_TRUE(same_value(v, want(key.first, key.second)))
        << what << " at (" << key.first << "," << key.second << ")";
  }
}

class FusedEpilogue : public ::testing::TestWithParam<KernelArch> {};

TEST_P(FusedEpilogue, LdMatrixMatchesNaive) {
  for (const auto& [n, k] : kShapes) {
    const BitMatrix g = random_matrix(n, k, n * 57 + k);
    for (const LdStatistic stat : kStats) {
      const LdMatrix want = naive_ld_matrix(g, stat);
      for (const GemmConfig& cfg : blocking_configs(GetParam())) {
        LdOptions opts;
        opts.gemm = cfg;
        opts.stat = stat;
        expect_same_matrix(ld_matrix(g, opts), want,
                           ld_statistic_name(stat).c_str());
      }
    }
  }
}

TEST_P(FusedEpilogue, CrossMatrixMatchesNaive) {
  for (const auto& [n, k] : kShapes) {
    const BitMatrix a = random_matrix(n, k, n * 77 + k);
    const BitMatrix b = random_matrix((n * 2) / 3 + 1, k, n * 131 + k);
    for (const LdStatistic stat : kStats) {
      const LdMatrix want = oracle::naive_cross_ld_matrix(a, b, stat);
      for (const GemmConfig& cfg : blocking_configs(GetParam())) {
        LdOptions opts;
        opts.gemm = cfg;
        opts.stat = stat;
        expect_same_matrix(ld_cross_matrix(a, b, opts), want,
                           ld_statistic_name(stat).c_str());
      }
    }
  }
}

TEST_P(FusedEpilogue, BandScanMatchesNaiveAtUnalignedWindows) {
  // The driver's slabs are 256 rows: 600 SNPs leave a ragged last slab,
  // and a bandwidth of 300 reaches past one slab.
  const BitMatrix g = random_matrix(600, 129, 47);
  const LdMatrix want = naive_ld_matrix(g, LdStatistic::kRSquared);
  for (const GemmConfig& cfg : blocking_configs(GetParam())) {
    // Bandwidths chosen so column windows start/end off every sliver and
    // cache-tile boundary.
    for (const std::size_t bandwidth : {1ul, 11ul, 37ul, 300ul}) {
      BandOptions opts;
      opts.gemm = cfg;
      PairSink sink;
      ld_band_scan(g, bandwidth, sink.visitor(), opts);
      expect_pairs_match(sink, want, /*canonical=*/true, "ld_band_scan",
                         bandwidth);
    }
  }
}

TEST_P(FusedEpilogue, StatScanCoversCanonicalPairsExactlyOnce) {
  const BitMatrix g = random_matrix(70, 129, 53);
  for (const LdStatistic stat : kStats) {
    const LdMatrix want = naive_ld_matrix(g, stat);
    for (const GemmConfig& cfg : blocking_configs(GetParam())) {
      LdOptions opts;
      opts.gemm = cfg;
      opts.stat = stat;
      PairSink sink;
      ld_stat_scan(g, sink.visitor(), opts);
      expect_pairs_match(sink, want, /*canonical=*/true,
                         ld_statistic_name(stat).c_str());
    }
  }
}

TEST_P(FusedEpilogue, CrossStatScanCoversEveryPairExactlyOnce) {
  const BitMatrix a = random_matrix(33, 323, 59);
  const BitMatrix b = random_matrix(23, 323, 61);
  for (const LdStatistic stat : kStats) {
    const LdMatrix want = oracle::naive_cross_ld_matrix(a, b, stat);
    for (const GemmConfig& cfg : blocking_configs(GetParam())) {
      LdOptions opts;
      opts.gemm = cfg;
      opts.stat = stat;
      PairSink sink;
      ld_cross_stat_scan(a, b, sink.visitor(), opts);
      expect_pairs_match(sink, want, /*canonical=*/false,
                         ld_statistic_name(stat).c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, FusedEpilogue, ::testing::ValuesIn(available_kernels()),
    [](const ::testing::TestParamInfo<KernelArch>& param_info) {
      std::string name = kernel_arch_name(param_info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- parallel drivers and omega windows ---------------------------------

TEST(FusedEpilogueParallel, StatScansMatchNaiveAtEveryTeamSize) {
  // A team calls the visitor concurrently on disjoint tiles; whatever the
  // team size (0 = default_thread_count()), the set of emitted pairs and
  // every value must equal the naive oracle bit-for-bit.
  const BitMatrix g = random_matrix(93, 200, 67);
  const BitMatrix b = random_matrix(33, 200, 69);
  GemmConfig small;  // many cache tiles, so every member gets chunks
  small.kc_words = 2;
  small.mc = 16;
  small.nc = 24;
  for (const LdStatistic stat : kStats) {
    const LdMatrix want = naive_ld_matrix(g, stat);
    const LdMatrix want_cross = oracle::naive_cross_ld_matrix(g, b, stat);
    for (const GemmConfig& cfg : {GemmConfig{}, small}) {
      LdOptions opts;
      opts.stat = stat;
      opts.gemm = cfg;
      for (const unsigned team : {1u, 2u, 3u, 4u, 0u}) {
        const std::string what = ld_statistic_name(stat) +
                                 " threads=" + std::to_string(team);
        PairSink scan;
        ld_stat_scan(g, scan.visitor(), opts, team);
        expect_pairs_match(scan, want, /*canonical=*/true,
                           (what + " ld_stat_scan").c_str());
        PairSink cross;
        ld_cross_stat_scan(g, b, cross.visitor(), opts, team);
        expect_pairs_match(cross, want_cross, /*canonical=*/false,
                           (what + " ld_cross_stat_scan").c_str());
      }
    }
  }
}

TEST(FusedEpilogueParallel, ParallelMatricesMatchNaive) {
  const BitMatrix g = random_matrix(70, 129, 71);
  const BitMatrix b = random_matrix(33, 129, 73);
  for (const LdStatistic stat : kStats) {
    const LdMatrix want = naive_ld_matrix(g, stat);
    const LdMatrix want_cross = oracle::naive_cross_ld_matrix(g, b, stat);
    LdOptions opts;
    opts.stat = stat;
    for (const unsigned team : kTeams) {
      expect_same_matrix(ld_matrix_parallel(g, opts, team), want,
                         "ld_matrix_parallel");
      expect_same_matrix(ld_cross_matrix(g, b, opts, team), want_cross,
                         "ld_cross_matrix team");
    }
  }
}

TEST(FusedEpilogueOmega, OmegaScanMatchesNaiveAtUnalignedWindows) {
  const BitMatrix g = random_matrix(160, 100, 79);
  std::vector<double> positions(g.snps());
  for (std::size_t s = 0; s < g.snps(); ++s) {
    positions[s] =
        (static_cast<double>(s) + 0.5) / static_cast<double>(g.snps());
  }
  // Window extents chosen so [begin, end) lands off every register-tile
  // and cache-tile boundary across the grid.
  SweepScanParams params;
  params.grid_points = 12;
  params.window_snps = 14;
  params.window_candidates = {7, 25};
  const std::vector<OmegaPoint> want =
      oracle::naive_omega_scan(g, positions, params);

  for (const unsigned threads : {0u, 1u, 2u, 4u}) {
    SweepScanParams run = params;
    run.threads = threads;
    const std::vector<OmegaPoint> got = omega_scan(g, positions, run);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(oracle::same_bits(got[i].omega, want[i].omega))
          << "point " << i << " threads " << threads;
      EXPECT_EQ(got[i].window_begin, want[i].window_begin);
      EXPECT_EQ(got[i].window_end, want[i].window_end);
      EXPECT_EQ(got[i].best_split, want[i].best_split);
    }
  }
}

// ---- driver-level: fused tile streams reassemble to the oracle counts ----

TEST(FusedEpilogueDrivers, GemmFusedTilesReassembleExactly) {
  const BitMatrix a = random_matrix(70, 129, 83);
  const BitMatrix b = random_matrix(33, 129, 89);
  const CountMatrix want = naive_count_matrix(a, b);
  for (const GemmConfig& cfg : blocking_configs(KernelArch::kAuto)) {
    const PackedBitMatrix pa =
        PackedBitMatrix::pack(a.view(), cfg, PackSides::kA);
    const PackedBitMatrix pb =
        PackedBitMatrix::pack(b.view(), cfg, PackSides::kB);
    // Ranges start/end off every register-tile boundary.
    for (const auto& [a0, a1, b0, b1] :
         std::vector<std::array<std::size_t, 4>>{
             {0, 70, 0, 33}, {3, 11, 1, 30}, {17, 42, 29, 30}}) {
      CountMatrix got(a1 - a0, b1 - b0);
      got.zero();
      std::size_t covered = 0;
      gemm_count_fused(pa, a0, a1, pb, b0, b1, [&](const CountTile& t) {
        for (std::size_t i = 0; i < t.rows; ++i) {
          for (std::size_t j = 0; j < t.cols; ++j) {
            got(t.row_begin + i - a0, t.col_begin + j - b0) = t.row(i)[j];
            ++covered;
          }
        }
      });
      ASSERT_EQ(covered, (a1 - a0) * (b1 - b0)) << "tiles must partition";
      for (std::size_t i = 0; i < a1 - a0; ++i) {
        for (std::size_t j = 0; j < b1 - b0; ++j) {
          ASSERT_EQ(got(i, j), want(a0 + i, b0 + j)) << i << "," << j;
        }
      }
    }
  }
}

TEST(FusedEpilogueDrivers, SyrkFusedTilesCoverLowerTriangleExactly) {
  const BitMatrix g = random_matrix(67, 200, 97);
  const CountMatrix want = naive_count_matrix(g, g);
  for (const GemmConfig& cfg : blocking_configs(KernelArch::kAuto)) {
    const PackedBitMatrix p = PackedBitMatrix::pack(g.view(), cfg);
    for (const auto& [r0, r1] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {0, 67}, {5, 37}, {30, 31}, {62, 67}}) {
      const std::size_t w = r1 - r0;
      CountMatrix got(w, w);
      got.zero();
      std::vector<std::uint8_t> hits(w * w, 0);
      syrk_count_fused(p, r0, r1, [&](const CountTile& t) {
        for (std::size_t i = 0; i < t.rows; ++i) {
          const std::size_t gi = t.row_begin + i;
          for (std::size_t j = 0; j < t.cols; ++j) {
            const std::size_t gj = t.col_begin + j;
            if (gj > gi) continue;  // above-diagonal entries unspecified
            got(gi - r0, gj - r0) = t.row(i)[j];
            ++hits[(gi - r0) * w + (gj - r0)];
          }
        }
      });
      for (std::size_t i = 0; i < w; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          ASSERT_EQ(hits[i * w + j], 1u)
              << "pair (" << i << "," << j << ") seen " << int{hits[i * w + j]}
              << " times";
          ASSERT_EQ(got(i, j), want(r0 + i, r0 + j)) << i << "," << j;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ldla
