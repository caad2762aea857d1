#include "omega/omega_stat.hpp"
#include "omega/sweep_scan.hpp"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gemm/config.hpp"
#include "core/gemm/packed_bit_matrix.hpp"
#include "naive_oracle.hpp"
#include "sim/rng.hpp"
#include "sim/sweep_sim.hpp"
#include "sim/wright_fisher.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

// Brute-force omega for one split, straight from the definition.
double omega_reference(const LdMatrix& r2, std::size_t l) {
  const std::size_t w = r2.rows();
  auto val = [&](std::size_t i, std::size_t j) {
    const double v = r2(i, j);
    return std::isfinite(v) ? v : 0.0;
  };
  double sum_l = 0, sum_r = 0, cross = 0;
  for (std::size_t i = 0; i < w; ++i) {
    for (std::size_t j = i + 1; j < w; ++j) {
      if (j < l) {
        sum_l += val(i, j);
      } else if (i >= l) {
        sum_r += val(i, j);
      } else {
        cross += val(i, j);
      }
    }
  }
  const double ld = static_cast<double>(l);
  const double rd = static_cast<double>(w - l);
  const double n_within = ld * (ld - 1) / 2 + rd * (rd - 1) / 2;
  const double n_cross = ld * rd;
  if (n_within <= 0 || n_cross <= 0) return 0.0;
  const double denom = cross / n_cross;
  if (denom <= 0) {
    return (sum_l + sum_r) > 0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return ((sum_l + sum_r) / n_within) / denom;
}

LdMatrix random_r2(std::size_t w, std::uint64_t seed) {
  WrightFisherParams p;
  p.n_snps = w;
  p.n_samples = 100;
  p.seed = seed;
  const BitMatrix g = simulate_genotypes(p);
  return ld_matrix(g);
}

TEST(OmegaStat, SplitMatchesBruteForce) {
  const LdMatrix r2 = random_r2(20, 1);
  for (std::size_t l = 1; l < 20; ++l) {
    EXPECT_NEAR(omega_at_split(r2, l), omega_reference(r2, l), 1e-9)
        << "split " << l;
  }
}

TEST(OmegaStat, MaxFindsBestSplit) {
  const LdMatrix r2 = random_r2(25, 2);
  const OmegaMax best = omega_max(r2);
  double want = 0.0;
  std::size_t want_split = 0;
  for (std::size_t l = 1; l < 25; ++l) {
    const double o = omega_reference(r2, l);
    if (o > want) {
      want = o;
      want_split = l;
    }
  }
  EXPECT_NEAR(best.omega, want, 1e-9);
  EXPECT_EQ(best.split, want_split);
}

TEST(OmegaStat, RejectsDegenerateSplits) {
  const LdMatrix r2 = random_r2(6, 3);
  EXPECT_THROW((void)omega_at_split(r2, 0), ContractViolation);
  EXPECT_THROW((void)omega_at_split(r2, 6), ContractViolation);
}

TEST(OmegaStat, TinyWindowsAreSafe) {
  LdMatrix r2(1, 1);
  EXPECT_EQ(omega_max(r2).omega, 0.0);
  LdMatrix r2b(2, 2);
  r2b(0, 1) = r2b(1, 0) = 0.5;
  // One pair, no within-group pairs on either side: omega defined as 0.
  EXPECT_EQ(omega_max(r2b).omega, 0.0);
}

TEST(OmegaStat, BlockStructureProducesHighOmega) {
  // Two perfectly correlated blocks with no cross correlation.
  const std::size_t w = 10;
  LdMatrix r2(w, w);
  for (std::size_t i = 0; i < w; ++i) {
    for (std::size_t j = 0; j < w; ++j) {
      const bool same_block = (i < 5) == (j < 5);
      r2(i, j) = same_block ? 0.9 : 0.01;
    }
  }
  const OmegaMax best = omega_max(r2);
  EXPECT_EQ(best.split, 5u);
  EXPECT_GT(best.omega, 10.0);
}

TEST(OmegaStat, UpperViewReadsOnlyTheStrictUpperTriangle) {
  // The scan's band layout: row a holds r2(a, a + d) at offset d, so the
  // window is the view {data, W - 1, w}. Every cell the view must not read
  // (diagonal, d >= w, the lower triangle of the square matrix) holds a
  // poison value that would swamp any sum it entered.
  const std::size_t w = 14;
  const std::size_t width = 17;
  const double poison = 1e300;
  const LdMatrix r2 = random_r2(w, 5);
  std::vector<double> band(w * width, poison);
  LdMatrix upper_only(w, w);
  for (std::size_t i = 0; i < w; ++i) {
    for (std::size_t j = 0; j < w; ++j) {
      upper_only(i, j) = j > i ? r2(i, j) : poison;
      if (j > i) band[i * width + (j - i)] = r2(i, j);
    }
  }
  const OmegaMax want = omega_max(r2);
  for (const OmegaMax& got :
       {omega_max(R2UpperView{band.data(), width - 1, w}),
        omega_max(upper_only)}) {
    EXPECT_TRUE(oracle::same_bits(got.omega, want.omega));
    EXPECT_EQ(got.split, want.split);
  }
}

TEST(SweepScan, FindsPlantedSweep) {
  SweepParams sp;
  sp.base.n_snps = 600;
  sp.base.n_samples = 200;
  sp.base.switch_rate = 0.05;
  sp.base.founders = 32;
  sp.base.seed = 99;
  sp.sweep_center = 0.5;
  sp.sweep_width = 0.12;
  sp.sweep_intensity = 0.95;
  const SimulatedDataset data = simulate_sweep(sp);

  SweepScanParams scan_params;
  scan_params.grid_points = 25;
  scan_params.window_snps = 30;
  const auto scan = omega_scan(data.genotypes, data.positions, scan_params);
  ASSERT_FALSE(scan.empty());
  const OmegaPoint peak = omega_scan_peak(scan);
  EXPECT_NEAR(peak.position, sp.sweep_center, 0.15)
      << "omega peak should localize the sweep";
}

TEST(SweepScan, NeutralDataHasLowerPeakThanSweptData) {
  WrightFisherParams neutral;
  neutral.n_snps = 600;
  neutral.n_samples = 200;
  neutral.switch_rate = 0.05;
  neutral.founders = 32;
  neutral.seed = 99;
  const SimulatedDataset nd = simulate_wright_fisher(neutral);

  SweepParams sp;
  sp.base = neutral;
  sp.sweep_center = 0.5;
  sp.sweep_width = 0.12;
  sp.sweep_intensity = 0.95;
  const SimulatedDataset sd = simulate_sweep(sp);

  SweepScanParams scan_params;
  scan_params.grid_points = 25;
  scan_params.window_snps = 30;
  const auto neutral_scan = omega_scan(nd.genotypes, nd.positions, scan_params);
  const auto sweep_scan_r = omega_scan(sd.genotypes, sd.positions, scan_params);
  const double neutral_peak = omega_scan_peak(neutral_scan).omega;
  const double sweep_peak = omega_scan_peak(sweep_scan_r).omega;
  EXPECT_GT(sweep_peak, neutral_peak)
      << "sweep signature must raise omega above the neutral background";
}

TEST(SweepScan, WindowSearchNeverLosesToFixedWindow) {
  SweepParams sp;
  sp.base.n_snps = 400;
  sp.base.n_samples = 120;
  sp.base.seed = 55;
  const SimulatedDataset d = simulate_sweep(sp);

  SweepScanParams fixed;
  fixed.grid_points = 12;
  fixed.window_snps = 20;
  const auto base_scan = omega_scan(d.genotypes, d.positions, fixed);

  SweepScanParams searched = fixed;
  searched.window_candidates = {10, 30, 40};
  const auto search_scan = omega_scan(d.genotypes, d.positions, searched);

  ASSERT_EQ(search_scan.size(), base_scan.size());
  for (std::size_t i = 0; i < base_scan.size(); ++i) {
    EXPECT_GE(search_scan[i].omega, base_scan[i].omega)
        << "window search must dominate the fixed window at point " << i;
  }
}

// Every field of every point, omega and position bit-for-bit.
void expect_same_points(const std::vector<OmegaPoint>& got,
                        const std::vector<OmegaPoint>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(oracle::same_bits(got[i].omega, want[i].omega))
        << what << ", point " << i << ": " << got[i].omega << " vs "
        << want[i].omega;
    EXPECT_TRUE(oracle::same_bits(got[i].position, want[i].position))
        << what << ", point " << i;
    EXPECT_EQ(got[i].window_begin, want[i].window_begin)
        << what << ", point " << i;
    EXPECT_EQ(got[i].window_end, want[i].window_end) << what << ", point " << i;
    EXPECT_EQ(got[i].best_split, want[i].best_split) << what << ", point " << i;
  }
}

TEST(SweepScan, ParallelMatchesSequential) {
  SweepParams sp;
  sp.base.n_snps = 400;
  sp.base.n_samples = 150;
  sp.base.seed = 77;
  const SimulatedDataset d = simulate_sweep(sp);
  SweepScanParams params;
  params.grid_points = 16;
  params.window_snps = 20;
  const auto seq = omega_scan(d.genotypes, d.positions, params);
  expect_same_points(seq,
                     oracle::naive_omega_scan(d.genotypes, d.positions, params),
                     "one thread vs naive");
  // Team 3 splits the 16 grid points unevenly.
  for (const unsigned t : {1u, 2u, 3u, 4u}) {
    SweepScanParams run = params;
    run.threads = t;
    expect_same_points(omega_scan(d.genotypes, d.positions, run), seq,
                       std::to_string(t) + " threads");
  }
}

// A region laid out against the band: monomorphic SNPs (all-derived and
// all-ancestral) interleaved singly and in a run long enough to starve
// small windows below 4 SNPs, rare SNPs that go sparse under the auto
// threshold, and positions in three tight clusters, so that many grid
// points share one center and the grid jumps past the band between
// clusters (and once past the last SNP).
SimulatedDataset hostile_layout() {
  const std::size_t n = 300;
  const std::size_t samples = 130;  // off the word grid
  Rng rng(2024);
  SimulatedDataset d;
  d.genotypes = BitMatrix(n, samples);
  for (std::size_t s = 0; s < n; ++s) {
    const bool starved = s >= 120 && s < 135;
    if (starved || s % 7 == 3) {
      if (s % 2 == 0) {
        for (std::size_t b = 0; b < samples; ++b) d.genotypes.set(s, b, true);
      }
      continue;
    }
    const double p = s % 5 == 0 ? 0.02 : 0.4;
    for (std::size_t b = 0; b < samples; ++b) {
      if (rng.next_bool(p)) d.genotypes.set(s, b, true);
    }
  }
  d.positions.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    const double cluster = s < 100 ? 0.10 : s < 200 ? 0.50 : 0.80;
    d.positions[s] = cluster + 0.05 * static_cast<double>(s % 100) / 100.0;
  }
  return d;
}

TEST(SweepScan, BandReuseMatchesNaiveOnHostileLayouts) {
  const SimulatedDataset d = hostile_layout();
  const BitMatrix& g = d.genotypes;
  const std::size_t huge = std::numeric_limits<std::size_t>::max();

  GemmConfig sparse;
  sparse.sparse_threshold = kSparseThresholdAuto;
  ASSERT_TRUE(PackedBitMatrix::pack(g.view(), sparse).hybrid_dispatch())
      << "the rare SNPs must take the sparse kernels";

  struct Case {
    std::size_t grid;
    std::size_t window;
    std::vector<std::size_t> candidates;
  };
  const Case cases[] = {
      {40, 6, {}},
      {40, 6, {3, 10, 10}},
      {6, 4, {1, 3, g.snps() + 5, huge}},
  };
  for (const Case& c : cases) {
    SweepScanParams params;
    params.grid_points = c.grid;
    params.window_snps = c.window;
    params.window_candidates = c.candidates;
    const std::vector<OmegaPoint> want =
        oracle::naive_omega_scan(g, d.positions, params);
    ASSERT_FALSE(want.empty());
    if (c.candidates.empty()) {
      EXPECT_LT(want.size(), c.grid) << "some window must be starved";
    }
    for (const std::size_t threshold : {std::size_t{0}, kSparseThresholdAuto}) {
      for (const unsigned team : {1u, 2u, 4u}) {
        SweepScanParams run = params;
        run.gemm.sparse_threshold = threshold;
        run.threads = team;
        expect_same_points(omega_scan(g, d.positions, run), want,
                           "window " + std::to_string(c.window) + " with " +
                               std::to_string(c.candidates.size()) +
                               " candidates, threshold " +
                               std::to_string(threshold) + ", team " +
                               std::to_string(team));
      }
    }
  }
}

TEST(SweepScan, HugeWindowSaturatesToTheRegion) {
  // A half-width near SIZE_MAX must clamp the window to the region end, not
  // wrap center + half around to a short window.
  SweepParams sp;
  sp.base.n_snps = 120;
  sp.base.n_samples = 100;
  sp.base.seed = 31;
  const SimulatedDataset d = simulate_sweep(sp);
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  SweepScanParams whole;
  whole.grid_points = 9;
  whole.window_snps = d.genotypes.snps();
  const auto want = omega_scan(d.genotypes, d.positions, whole);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(want.front().window_end, d.genotypes.snps());
  expect_same_points(
      want, oracle::naive_omega_scan(d.genotypes, d.positions, whole),
      "whole region vs naive");

  SweepScanParams main_window = whole;
  main_window.window_snps = huge;
  expect_same_points(omega_scan(d.genotypes, d.positions, main_window), want,
                     "main window SIZE_MAX");

  // As a searched candidate it must also reach the whole region: against a
  // small main window, the candidate SIZE_MAX and the candidate g.snps()
  // pick the same windows.
  SweepScanParams searched = whole;
  searched.window_snps = 10;
  searched.window_candidates = {d.genotypes.snps()};
  const auto want_searched = omega_scan(d.genotypes, d.positions, searched);
  searched.window_candidates = {huge};
  expect_same_points(omega_scan(d.genotypes, d.positions, searched),
                     want_searched, "candidate SIZE_MAX");
}

TEST(SweepScan, RejectsBadInputs) {
  WrightFisherParams p;
  p.n_snps = 20;
  p.n_samples = 50;
  const SimulatedDataset d = simulate_wright_fisher(p);
  std::vector<double> wrong_positions(5, 0.5);
  EXPECT_THROW((void)omega_scan(d.genotypes, wrong_positions, {}),
               ContractViolation);
  SweepScanParams bad;
  bad.grid_points = 0;
  EXPECT_THROW((void)omega_scan(d.genotypes, d.positions, bad),
               ContractViolation);
}

}  // namespace
}  // namespace ldla
