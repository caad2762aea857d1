#include "core/missing.hpp"

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/band.hpp"
#include "core/gemm/packed_bit_matrix.hpp"
#include "naive_oracle.hpp"
#include "sim/rng.hpp"
#include "util/contract.hpp"
#include "util/trace.hpp"

namespace ldla {
namespace {

// Scalar oracle directly from the Section VII formulas, per sample.
double oracle_pair(const MaskedBitMatrix& g, std::size_t i, std::size_t j,
                   LdStatistic stat) {
  std::uint64_t ci = 0, cj = 0, cij = 0, nv = 0;
  for (std::size_t s = 0; s < g.samples(); ++s) {
    const bool vi = g.valid().get(i, s);
    const bool vj = g.valid().get(j, s);
    if (!vi || !vj) continue;
    ++nv;
    const bool si = g.states().get(i, s);
    const bool sj = g.states().get(j, s);
    ci += si;
    cj += sj;
    cij += si && sj;
  }
  return ld_value_missing(stat, ci, cj, cij, nv);
}

MaskedBitMatrix random_masked(std::size_t snps, std::size_t samples,
                              double missing_rate, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> rows(snps);
  for (auto& row : rows) {
    row.resize(samples);
    for (auto& c : row) {
      if (rng.next_bool(missing_rate)) {
        c = '-';
      } else {
        c = rng.next_bool(0.4) ? '1' : '0';
      }
    }
  }
  return MaskedBitMatrix::from_snp_strings(rows);
}

TEST(MaskedBitMatrix, FromStringsParsesAllSymbols) {
  const std::vector<std::string> rows = {"01-N", "1100"};
  const MaskedBitMatrix m = MaskedBitMatrix::from_snp_strings(rows);
  EXPECT_EQ(m.snps(), 2u);
  EXPECT_EQ(m.samples(), 4u);
  EXPECT_FALSE(m.states().get(0, 0));
  EXPECT_TRUE(m.states().get(0, 1));
  EXPECT_TRUE(m.valid().get(0, 0));
  EXPECT_TRUE(m.valid().get(0, 1));
  EXPECT_FALSE(m.valid().get(0, 2));  // '-'
  EXPECT_FALSE(m.valid().get(0, 3));  // 'N'
  EXPECT_EQ(m.valid_count(0), 2u);
  EXPECT_EQ(m.valid_count(1), 4u);
}

TEST(MaskedBitMatrix, RejectsBadSymbols) {
  const std::vector<std::string> rows = {"01?0"};
  EXPECT_THROW(MaskedBitMatrix::from_snp_strings(rows), ParseError);
}

TEST(MaskedBitMatrix, ConstructorEnforcesStateMaskInvariant) {
  BitMatrix states(1, 4);
  BitMatrix valid(1, 4);
  states.set(0, 0, true);  // state set but invalid
  states.set(0, 1, true);
  valid.set(0, 1, true);
  const MaskedBitMatrix m(std::move(states), std::move(valid));
  EXPECT_FALSE(m.states().get(0, 0)) << "invalid state bit must be cleared";
  EXPECT_TRUE(m.states().get(0, 1));
}

TEST(MaskedBitMatrix, RejectsDimensionMismatch) {
  EXPECT_THROW(MaskedBitMatrix(BitMatrix(2, 4), BitMatrix(2, 5)),
               ContractViolation);
  EXPECT_THROW(MaskedBitMatrix(BitMatrix(2, 4), BitMatrix(3, 4)),
               ContractViolation);
}

// Oracle for one cross pair (row i of `a`, row j of `b`), per sample.
double oracle_cross_pair(const MaskedBitMatrix& a, std::size_t i,
                         const MaskedBitMatrix& b, std::size_t j,
                         LdStatistic stat) {
  std::uint64_t ci = 0, cj = 0, cij = 0, nv = 0;
  for (std::size_t s = 0; s < a.samples(); ++s) {
    if (!a.valid().get(i, s) || !b.valid().get(j, s)) continue;
    ++nv;
    ci += a.states().get(i, s);
    cj += b.states().get(j, s);
    cij += a.states().get(i, s) && b.states().get(j, s);
  }
  return ld_value_missing(stat, ci, cj, cij, nv);
}

// Gap-heavy data, and near-complete data whose validity rows are
// near-all-ones (complement lists under the sparse dispatch).
std::vector<MaskedBitMatrix> sweep_panels() {
  std::vector<MaskedBitMatrix> out;
  out.push_back(random_masked(41, 150, 0.15, 42));
  out.push_back(random_masked(23, 90, 0.01, 43));
  return out;
}

class MissingStat : public ::testing::TestWithParam<LdStatistic> {};

TEST_P(MissingStat, MatrixMatchesPerSampleOracleBitForBit) {
  for (const MaskedBitMatrix& g : sweep_panels()) {
    std::vector<double> want(g.snps() * g.snps());
    for (std::size_t i = 0; i < g.snps(); ++i) {
      for (std::size_t j = 0; j < g.snps(); ++j) {
        want[i * g.snps() + j] = oracle_pair(g, i, j, GetParam());
      }
    }
    for (const GemmConfig& cfg : oracle::pair_block_configs()) {
      LdOptions opts;
      opts.stat = GetParam();
      opts.gemm = cfg;
      const LdMatrix got = ld_matrix(g, opts);
      for (std::size_t i = 0; i < g.snps(); ++i) {
        for (std::size_t j = 0; j < g.snps(); ++j) {
          ASSERT_TRUE(oracle::same_bits(got(i, j), want[i * g.snps() + j]))
              << oracle::describe_plan(cfg) << " at " << i << "," << j;
        }
      }
    }
  }
}

TEST_P(MissingStat, CrossMatrixMatchesOracleBitForBit) {
  const MaskedBitMatrix a = random_masked(11, 100, 0.2, 8);
  const MaskedBitMatrix b = random_masked(7, 100, 0.1, 9);
  for (const GemmConfig& cfg : oracle::pair_block_configs()) {
    LdOptions opts;
    opts.stat = GetParam();
    opts.gemm = cfg;
    const LdMatrix got = ld_cross_matrix(a, b, opts);
    ASSERT_EQ(got.rows(), a.snps());
    ASSERT_EQ(got.cols(), b.snps());
    for (std::size_t i = 0; i < a.snps(); ++i) {
      for (std::size_t j = 0; j < b.snps(); ++j) {
        ASSERT_TRUE(oracle::same_bits(
            got(i, j), oracle_cross_pair(a, i, b, j, GetParam())))
            << oracle::describe_plan(cfg) << " at " << i << "," << j;
      }
    }
  }
}

TEST_P(MissingStat, ScanEmitsEachCanonicalPairOnceMatchingOracle) {
  for (const MaskedBitMatrix& g : sweep_panels()) {
    const std::size_t n = g.snps();
    for (const GemmConfig& cfg : oracle::pair_block_configs()) {
      LdOptions opts;
      opts.stat = GetParam();
      opts.gemm = cfg;
      std::vector<int> seen(n * n, 0);
      ld_stat_scan(g, [&](const LdTile& tile) {
        ASSERT_LE(tile.row_begin + tile.rows, n);
        ASSERT_LE(tile.col_begin + tile.cols, n);
        for (std::size_t i = 0; i < tile.rows; ++i) {
          for (std::size_t j = 0; j < tile.cols; ++j) {
            const std::size_t gi = tile.row_begin + i;
            const std::size_t gj = tile.col_begin + j;
            ASSERT_LE(gj, gi)
                << oracle::describe_plan(cfg) << ": above the diagonal";
            ++seen[gi * n + gj];
            ASSERT_TRUE(oracle::same_bits(tile.at(i, j),
                                          oracle_pair(g, gi, gj, GetParam())))
                << oracle::describe_plan(cfg) << " at " << gi << "," << gj;
          }
        }
      }, opts);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          ASSERT_EQ(seen[i * n + j], 1)
              << oracle::describe_plan(cfg) << " pair " << i << "," << j;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStatistics, MissingStat,
                         ::testing::Values(LdStatistic::kD,
                                           LdStatistic::kDPrime,
                                           LdStatistic::kRSquared),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case LdStatistic::kD: return "D";
                             case LdStatistic::kDPrime: return "DPrime";
                             default: return "RSquared";
                           }
                         });

TEST(Missing, AllValidReducesToPlainLd) {
  // With no gaps, the masked computation must equal the ISM path bit for
  // bit (NaNs aside: the two paths produce NaNs with different sign bits).
  const MaskedBitMatrix masked = random_masked(19, 120, 0.0, 7);
  const LdMatrix got = ld_matrix(masked);
  const LdMatrix want = ld_matrix(masked.states().clone());
  for (std::size_t i = 0; i < 19; ++i) {
    for (std::size_t j = 0; j < 19; ++j) {
      EXPECT_TRUE(oracle::same_value(got(i, j), want(i, j))) << i << "," << j;
    }
  }
}

TEST(Missing, FullyMissingPairIsNaN) {
  const std::vector<std::string> rows = {"--11", "11--"};
  const MaskedBitMatrix g = MaskedBitMatrix::from_snp_strings(rows);
  const LdMatrix r2 = ld_matrix(g);
  EXPECT_TRUE(std::isnan(r2(0, 1)));
  EXPECT_TRUE(std::isnan(r2(1, 0)));
}

TEST(Missing, ScanPacksTheInterleavedMatrixOnce) {
  if (!trace::compiled()) GTEST_SKIP() << "built with LDLA_TRACE=OFF";
  const MaskedBitMatrix g = random_masked(41, 2048, 0.06, 12);
  // The operand the scan packs: row 2i = x_i, row 2i+1 = c_i.
  BitMatrix interleaved(2 * g.snps(), g.samples());
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t s = 0; s < g.samples(); ++s) {
      interleaved.set(2 * i, s, g.states().get(i, s));
      interleaved.set(2 * i + 1, s, g.valid().get(i, s));
    }
  }
  trace::TraceSnapshot before = trace::snapshot();
  (void)PackedBitMatrix::pack(interleaved.view());
  const std::uint64_t one_pack =
      trace::snapshot().since(before).counters.bytes_packed;
  ASSERT_GT(one_pack, 0u);

  before = trace::snapshot();
  std::size_t tiles = 0;
  ld_stat_scan(g, [&](const LdTile&) { ++tiles; });
  EXPECT_EQ(trace::snapshot().since(before).counters.bytes_packed, one_pack);
  EXPECT_GT(tiles, 0u);
}

// Per-sample masked counts (ci, cj, cij, n_valid) of every ordered pair,
// row-major: the oracle of the banded scan, whose stripes also carry pairs
// above the diagonal.
std::vector<std::array<std::uint64_t, 4>> oracle_counts(
    const MaskedBitMatrix& g) {
  const std::size_t n = g.snps();
  std::vector<std::array<std::uint64_t, 4>> out(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      std::uint64_t ci = 0, cj = 0, cij = 0, nv = 0;
      for (std::size_t s = 0; s < g.samples(); ++s) {
        if (!g.valid().get(i, s) || !g.valid().get(j, s)) continue;
        ++nv;
        const bool si = g.states().get(i, s);
        const bool sj = g.states().get(j, s);
        ci += si;
        cj += sj;
        cij += si && sj;
      }
      out[i * n + j] = {ci, cj, cij, nv};
      out[j * n + i] = {cj, ci, cij, nv};
    }
  }
  return out;
}

TEST(Missing, BandScanMatchesPerSampleOracleBitForBit) {
  // Two slabs of 256 rows and a ragged one of 88; bandwidth 300 is wider
  // than a slab.
  const MaskedBitMatrix g = random_masked(600, 96, 0.1, 21);
  const std::size_t n = g.snps();
  const std::vector<std::array<std::uint64_t, 4>> counts = oracle_counts(g);
  for (const LdStatistic stat :
       {LdStatistic::kD, LdStatistic::kDPrime, LdStatistic::kRSquared}) {
    for (const std::size_t bandwidth : {1u, 7u, 300u}) {
      for (const GemmConfig& cfg : oracle::pair_block_configs()) {
        const std::string what = ld_statistic_name(stat) + " bandwidth " +
                                 std::to_string(bandwidth) + " " +
                                 oracle::describe_plan(cfg);
        BandOptions opts;
        opts.stat = stat;
        opts.gemm = cfg;
        std::vector<int> seen(n * n, 0);
        ld_band_scan(g, bandwidth, [&](const LdTile& tile) {
          ASSERT_LE(tile.row_begin + tile.rows, n);
          ASSERT_LE(tile.col_begin + tile.cols, n);
          for (std::size_t i = 0; i < tile.rows; ++i) {
            for (std::size_t j = 0; j < tile.cols; ++j) {
              const std::size_t gi = tile.row_begin + i;
              const std::size_t gj = tile.col_begin + j;
              ++seen[gi * n + gj];
              const auto& k = counts[gi * n + gj];
              ASSERT_TRUE(oracle::same_bits(
                  tile.at(i, j), ld_value_missing(stat, k[0], k[1], k[2],
                                                  k[3])))
                  << what << " at " << gi << "," << gj;
            }
          }
        }, opts);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = i > bandwidth ? i - bandwidth : 0; j <= i;
               ++j) {
            ASSERT_EQ(seen[i * n + j], 1) << what << " pair " << i << ","
                                          << j;
          }
        }
      }
    }
  }
}

TEST(Missing, TeamsAreBitIdenticalToATeamOfOne) {
  const MaskedBitMatrix g = random_masked(150, 300, 0.1, 22);
  const std::size_t n = g.snps();
  for (const GemmConfig& cfg : oracle::pair_block_configs()) {
    LdOptions opts;
    opts.gemm = cfg;
    const LdMatrix want = ld_matrix(g, opts);
    for (const unsigned team : {1u, 2u, 4u}) {
      const std::string what =
          oracle::describe_plan(cfg) + " team " + std::to_string(team);
      const LdMatrix got = ld_matrix(g, opts, team);
      std::vector<double> scanned(n * n, 0.0);
      std::vector<int> seen(n * n, 0);
      // Tiles of a team arrive concurrently but are disjoint.
      ld_stat_scan(g, [&](const LdTile& tile) {
        for (std::size_t i = 0; i < tile.rows; ++i) {
          for (std::size_t j = 0; j < tile.cols; ++j) {
            const std::size_t at =
                (tile.row_begin + i) * n + tile.col_begin + j;
            scanned[at] = tile.at(i, j);
            ++seen[at];
          }
        }
      }, opts, team);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_TRUE(oracle::same_bits(got(i, j), want(i, j)))
              << what << " at " << i << "," << j;
          ASSERT_EQ(seen[i * n + j], j <= i ? 1 : 0)
              << what << " pair " << i << "," << j;
          if (j <= i) {
            ASSERT_TRUE(oracle::same_bits(scanned[i * n + j], want(i, j)))
                << what << " scan at " << i << "," << j;
          }
        }
      }
    }
  }
}

TEST(Missing, CallerHeldPackMustHoldTheOperandRows) {
  const MaskedBitMatrix g = random_masked(30, 130, 0.1, 23);
  const LdTileVisitor ignore = [](const LdTile&) {};
  // A pack of the states alone has n rows, not the operand's 2n.
  const PackedBitMatrix states = PackedBitMatrix::pack(g.states().view());
  LdOptions opts;
  opts.packed = &states;
  EXPECT_THROW((void)ld_matrix(g, opts), ContractViolation);
  EXPECT_THROW(ld_stat_scan(g, ignore, opts), ContractViolation);
  BandOptions band;
  band.packed = &states;
  EXPECT_THROW(ld_band_scan(g, 4, ignore, band), ContractViolation);

  // A pack of the operand's rows is used as is.
  const LdOperand op(g);
  const PackedBitMatrix rows = PackedBitMatrix::pack(op.rows().view());
  opts.packed = &rows;
  const LdMatrix got = ld_matrix(op, opts);
  const LdMatrix want = ld_matrix(g);
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t j = 0; j < g.snps(); ++j) {
      ASSERT_TRUE(oracle::same_bits(got(i, j), want(i, j))) << i << "," << j;
    }
  }
}

TEST(Missing, CrossProductOfTwoKindsIsRejected) {
  const MaskedBitMatrix g = random_masked(12, 80, 0.1, 24);
  const LdTileVisitor ignore = [](const LdTile&) {};
  EXPECT_THROW((void)ld_cross_matrix(g, g.states()), ContractViolation);
  EXPECT_THROW((void)ld_cross_matrix(g.states(), g), ContractViolation);
  EXPECT_THROW(ld_cross_stat_scan(g, g.states(), ignore), ContractViolation);
}

TEST(Missing, ValueMissingWithZeroValidIsNaN) {
  EXPECT_TRUE(
      std::isnan(ld_value_missing(LdStatistic::kRSquared, 0, 0, 0, 0)));
}

}  // namespace
}  // namespace ldla
