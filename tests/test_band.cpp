#include "core/band.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "sim/wright_fisher.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

BitMatrix test_matrix(std::size_t snps, std::size_t samples,
                      std::uint64_t seed, double switch_rate = 0.02) {
  WrightFisherParams p;
  p.n_snps = snps;
  p.n_samples = samples;
  p.seed = seed;
  p.switch_rate = switch_rate;
  return simulate_genotypes(p);
}

// The driver cuts rows into 256-row slabs: 600 SNPs leave a ragged last
// slab of 88 rows, and a bandwidth of 300 reaches past one slab.
constexpr std::size_t kRaggedSnps = 600;

TEST(BandScan, CoversEveryBandPairExactlyOnce) {
  const BitMatrix g = test_matrix(kRaggedSnps, 70, 1);
  const std::size_t n = g.snps();
  for (const std::size_t w : {9u, 300u}) {
    std::vector<int> seen(n * n, 0);
    std::size_t short_slabs = 0;
    ld_band_scan(g, w, [&](const LdTile& tile) {
      if (tile.rows < 256) ++short_slabs;
      for (std::size_t i = 0; i < tile.rows; ++i) {
        for (std::size_t j = 0; j < tile.cols; ++j) {
          ++seen[(tile.row_begin + i) * n + tile.col_begin + j];
        }
      }
    });
    EXPECT_EQ(short_slabs, 1u) << "w=" << w;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        if (i - j <= w) {
          ASSERT_EQ(seen[i * n + j], 1) << "w=" << w << " " << i << "," << j;
        }
      }
    }
  }
}

TEST(BandScan, ValuesMatchFullMatrix) {
  const BitMatrix g = test_matrix(kRaggedSnps, 120, 2);
  const LdMatrix full = ld_matrix(g);
  for (const std::size_t w : {12u, 300u}) {
    ld_band_scan(g, w, [&](const LdTile& tile) {
      for (std::size_t i = 0; i < tile.rows; ++i) {
        for (std::size_t j = 0; j < tile.cols; ++j) {
          const double want = full(tile.row_begin + i, tile.col_begin + j);
          const double got = tile.at(i, j);
          if (std::isnan(want)) {
            ASSERT_TRUE(std::isnan(got));
          } else {
            ASSERT_DOUBLE_EQ(got, want);
          }
        }
      }
    });
  }
}

TEST(BandScan, WideBandEqualsFullScan) {
  const BitMatrix g = test_matrix(30, 64, 3);
  std::size_t band_pairs = 0;
  ld_band_scan(g, g.snps(), [&](const LdTile& tile) {
    for (std::size_t i = 0; i < tile.rows; ++i) {
      const std::size_t gi = tile.row_begin + i;
      for (std::size_t j = 0; j < tile.cols; ++j) {
        if (tile.col_begin + j <= gi) ++band_pairs;
      }
    }
  });
  EXPECT_EQ(band_pairs, ld_pair_count(g.snps()));
}

TEST(BandScan, HugeBandwidthMeansEveryColumn) {
  // A bandwidth near SIZE_MAX must saturate to full-width slabs: the stripe
  // buffer is sized from max_rows + bandwidth, and a wrapped sum would
  // under-allocate it while the tiles still write every column.
  const BitMatrix g = test_matrix(100, 64, 9);
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  std::size_t pairs = 0;
  ld_band_scan(g, huge, [&](const LdTile& tile) {
    EXPECT_EQ(tile.col_begin, 0u);
    EXPECT_EQ(tile.cols, tile.row_begin + tile.rows);
    for (std::size_t i = 0; i < tile.rows; ++i) {
      pairs += tile.row_begin + i + 1;
    }
  });
  EXPECT_EQ(pairs, ld_pair_count(g.snps()));

  // Same through the decay profile: every pair lands in the first bin.
  const DecayProfile prof = ld_decay_profile(g, huge, 4);
  const LdMatrix full = ld_matrix(g);
  std::uint64_t finite = 0;
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (std::isfinite(full(i, j))) ++finite;
    }
  }
  EXPECT_EQ(prof.count[0], finite);
}

TEST(BandScan, RejectsBadArguments) {
  const BitMatrix g = test_matrix(10, 64, 4);
  EXPECT_THROW(ld_band_scan(g, 0, [](const LdTile&) {}), ContractViolation);
}

TEST(BandScan, EmptyMatrixEmitsNothing) {
  BitMatrix empty;
  ld_band_scan(empty, 5, [](const LdTile&) { FAIL(); });
}

TEST(DecayProfile, MatchesBruteForceBinning) {
  const BitMatrix g = test_matrix(60, 100, 5);
  const std::size_t max_dist = 15;
  const std::size_t bins = 5;
  const DecayProfile prof = ld_decay_profile(g, max_dist, bins);
  ASSERT_EQ(prof.mean.size(), bins);
  ASSERT_EQ(prof.bin_upper.size(), bins);

  const LdMatrix full = ld_matrix(g);
  std::vector<double> sum(bins, 0.0);
  std::vector<std::uint64_t> count(bins, 0);
  const double width = static_cast<double>(max_dist) / bins;
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const std::size_t dist = i - j;
      if (dist > max_dist) continue;
      const double v = full(i, j);
      if (!std::isfinite(v)) continue;
      auto b = static_cast<std::size_t>(static_cast<double>(dist - 1) / width);
      b = std::min(b, bins - 1);
      sum[b] += v;
      ++count[b];
    }
  }
  for (std::size_t b = 0; b < bins; ++b) {
    EXPECT_EQ(prof.count[b], count[b]) << "bin " << b;
    if (count[b] > 0) {
      EXPECT_NEAR(prof.mean[b], sum[b] / static_cast<double>(count[b]), 1e-12);
    }
  }
}

TEST(DecayProfile, DecaysOnLinkedData) {
  const BitMatrix g = test_matrix(500, 200, 6, /*switch_rate=*/0.02);
  const DecayProfile prof = ld_decay_profile(g, 100, 4);
  ASSERT_GT(prof.count[0], 0u);
  ASSERT_GT(prof.count[3], 0u);
  EXPECT_GT(prof.mean[0], prof.mean[3])
      << "nearby SNPs must show more LD than distant ones";
}

TEST(DecayProfile, ByPositionMatchesBruteForce) {
  WrightFisherParams p;
  p.n_snps = 80;
  p.n_samples = 90;
  p.seed = 7;
  const SimulatedDataset d = simulate_wright_fisher(p);
  const std::size_t bandwidth = 80;  // cover everything
  const double max_dist = 0.2;
  const std::size_t bins = 4;
  const DecayProfile prof = ld_decay_by_position(
      d.genotypes, d.positions, bandwidth, max_dist, bins);

  const LdMatrix full = ld_matrix(d.genotypes);
  std::vector<double> sum(bins, 0.0);
  std::vector<std::uint64_t> count(bins, 0);
  for (std::size_t i = 0; i < d.genotypes.snps(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double dist = d.positions[i] - d.positions[j];
      if (dist > max_dist || dist <= 0.0) continue;
      const double v = full(i, j);
      if (!std::isfinite(v)) continue;
      auto b = static_cast<std::size_t>(dist / (max_dist / bins));
      b = std::min(b, bins - 1);
      sum[b] += v;
      ++count[b];
    }
  }
  for (std::size_t b = 0; b < bins; ++b) {
    EXPECT_EQ(prof.count[b], count[b]) << "bin " << b;
    if (count[b] > 0) {
      EXPECT_NEAR(prof.mean[b], sum[b] / static_cast<double>(count[b]), 1e-12);
    }
  }
}

TEST(DecayProfile, RejectsBadArguments) {
  const BitMatrix g = test_matrix(10, 64, 8);
  EXPECT_THROW((void)ld_decay_profile(g, 0, 4), ContractViolation);
  EXPECT_THROW((void)ld_decay_profile(g, 5, 0), ContractViolation);
  std::vector<double> pos(5, 0.1);
  EXPECT_THROW((void)ld_decay_by_position(g, pos, 5, 0.1, 2),
               ContractViolation);
}

}  // namespace
}  // namespace ldla
