#include "core/band.hpp"

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/naive.hpp"
#include "baselines/plink_like.hpp"
#include "core/missing.hpp"
#include "naive_oracle.hpp"
#include "sim/maf_spectrum.hpp"
#include "sim/rng.hpp"
#include "sim/wright_fisher.hpp"
#include "util/contract.hpp"
#include "util/trace.hpp"

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

// Rare-variant-dominated panel, so the auto threshold sends some register
// tiles down every sparse route (list×list, both list×dense passes).
BitMatrix rare_panel(std::size_t snps, std::size_t samples,
                     std::uint64_t seed) {
  MafSpectrumParams p;
  p.n_snps = snps;
  p.n_samples = samples;
  p.rare_fraction = 0.8;
  p.rare_max_maf = 0.01;
  p.seed = seed;
  return simulate_maf_spectrum(p);
}

// One operand kind of the sweep below, with its per-pair oracle.
struct BandCase {
  const char* kind;
  LdOperand operand;
  LdMatrix want;
};

// Masked counts straight from the state and validity planes (the
// missing-data statistic's definition, core/missing.hpp).
LdMatrix masked_oracle(const MaskedBitMatrix& g) {
  const std::size_t n = g.snps();
  const BitMatrix& x = g.states();
  const BitMatrix& c = g.valid();
  LdMatrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      out(i, j) = ld_value_missing(
          LdStatistic::kRSquared, naive_pair_count(x, i, c, j),
          naive_pair_count(c, i, x, j), naive_pair_count(x, i, x, j),
          naive_pair_count(c, i, c, j));
    }
  }
  return out;
}

// The band contract, over every operand kind x kernel x bandwidth x sparse
// threshold x team: every in-band canonical pair arrives exactly once, no
// entry lies outside 0 <= i - j <= W, every value is bit-identical to the
// oracle, and the visitor is never entered concurrently. 300 SNPs leave a
// ragged second slab of 44 rows; bandwidths 255/256/257 straddle the slab
// height, and 300 and SIZE_MAX reach row 0 from the last row. Rare
// alleles and few gaps keep both planes of the masked and genotype
// operands list-classified, so the auto threshold runs the sparse routes
// for every kind.
TEST(BandScan, CoversEveryBandPairExactlyOnce) {
  constexpr std::size_t kSnps = 300;
  const BitMatrix haps = rare_panel(kSnps, 130, 1);
  BitMatrix valid(kSnps, haps.samples());
  Rng rng(2);
  for (std::size_t s = 0; s < kSnps; ++s) {
    for (std::size_t b = 0; b < haps.samples(); ++b) {
      valid.set(s, b, !rng.next_bool(0.01));
    }
  }
  const MaskedBitMatrix masked(haps.clone(), std::move(valid));
  const GenotypeMatrix geno = GenotypeMatrix::from_haplotypes(haps);
  const BandCase cases[] = {
      {"haplotypes", haps, naive_ld_matrix(haps, LdStatistic::kRSquared)},
      {"masked", masked, masked_oracle(masked)},
      {"genotypes", geno, plink_like_matrix(geno)},
  };
  const std::size_t n = kSnps;
  for (const BandCase& c : cases) {
    for (const KernelArch arch : available_kernels()) {
      for (const std::size_t w :
           {std::size_t{1}, std::size_t{3}, std::size_t{11}, std::size_t{37},
            std::size_t{255}, std::size_t{256}, std::size_t{257},
            std::size_t{300}, std::numeric_limits<std::size_t>::max()}) {
        for (const std::size_t threshold : {std::size_t{0},
                                            kSparseThresholdAuto}) {
          for (const unsigned team : {1u, 2u, 4u}) {
            BandOptions opts;
            opts.gemm.arch = arch;
            opts.gemm.sparse_threshold = threshold;
            opts.threads = team;
            const std::string what =
                std::string(c.kind) + " " + kernel_arch_name(arch) + " w " +
                std::to_string(w) + " threshold " +
                std::to_string(threshold) + " team " + std::to_string(team);
            std::vector<int> seen(n * n, 0);
            std::atomic<bool> inside{false};
            bool concurrent = false;
            bool outside = false;
            bool mismatch = false;
            const trace::TraceSnapshot before = trace::snapshot();
            ld_band_scan(c.operand, w, [&](const LdTile& tile) {
              concurrent |= inside.exchange(true);
              for (std::size_t i = 0; i < tile.rows; ++i) {
                for (std::size_t j = 0; j < tile.cols; ++j) {
                  const std::size_t gi = tile.row_begin + i;
                  const std::size_t gj = tile.col_begin + j;
                  if (gi >= n || gj > gi || gi - gj > w) {
                    outside = true;
                    continue;
                  }
                  ++seen[gi * n + gj];
                  mismatch |=
                      !oracle::same_value(tile.at(i, j), c.want(gi, gj));
                }
              }
              inside = false;
            }, opts);
            const trace::PhaseCounters d =
                trace::snapshot().since(before).counters;
            if (trace::compiled() && threshold != 0) {
              EXPECT_GT(d.sparse_ll_tiles, 0u) << what;
              EXPECT_GT(d.sparse_ld_tiles, 0u) << what;
            }
            EXPECT_FALSE(concurrent) << what;
            ASSERT_FALSE(outside) << what << ": entry outside the band";
            ASSERT_FALSE(mismatch) << what << ": value differs from oracle";
            for (std::size_t i = 0; i < n; ++i) {
              for (std::size_t j = 0; j <= i; ++j) {
                ASSERT_EQ(seen[i * n + j], i - j <= w ? 1 : 0)
                    << what << " pair " << i << "," << j;
              }
            }
          }
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
  // A bandwidth near SIZE_MAX must saturate to full-width stripes: the
  // stripe buffer is sized from max_rows + bandwidth, and a wrapped sum
  // would under-allocate it while each row's run still reaches column 0.
  const BitMatrix g = test_matrix(100, 64, 9);
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  std::size_t pairs = 0;
  ld_band_scan(g, huge, [&](const LdTile& tile) {
    // One fragment per row i: its whole run [0, i].
    EXPECT_EQ(tile.rows, 1u);
    EXPECT_EQ(tile.col_begin, 0u);
    EXPECT_EQ(tile.cols, tile.row_begin + 1);
    pairs += tile.cols;
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
