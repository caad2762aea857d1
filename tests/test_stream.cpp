// Bit-identity of the out-of-core streaming drivers against the in-memory
// scans, across kernels, blocking shapes, ragged shard boundaries,
// statistics and sequential/nest execution — plus the residency-budget
// invariant the streaming engine exists to provide.
//
// "Bit-identical" is literal: the streamed tiles and the ld_stat_scan tiles
// are assembled into dense matrices and compared with memcmp, so NaN
// payloads and -0.0 count as differences. The streaming path recomputes
// StatTables from persisted popcounts and rebases tile indices, so this is
// the test that pins its epilogue arithmetic to ld.cpp's.
#include "core/ld_stream.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ld.hpp"
#include "core/parallel.hpp"
#include "sim/maf_spectrum.hpp"
#include "sim/rng.hpp"
#include "util/contract.hpp"
#include "util/sync.hpp"

namespace ldla {
namespace {

BitMatrix random_matrix(std::size_t snps, std::size_t samples,
                        std::uint64_t seed, double density = 0.3) {
  Rng rng(seed);
  BitMatrix m(snps, samples);
  for (std::size_t s = 0; s < snps; ++s) {
    for (std::size_t b = 0; b < samples; ++b) {
      if (rng.next_bool(density)) m.set(s, b, true);
    }
  }
  return m;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Assembles tiles into a dense matrix for the memcmp; a sentinel fill
/// makes a missing emission differ from an emitted zero.
struct Assembly {
  std::size_t cols = 0;
  std::vector<double> values;
  std::size_t cells = 0;
  Mutex mu;  // nest mode delivers tiles concurrently

  Assembly(std::size_t r, std::size_t c) : cols(c), values(r * c, -7777.0) {}

  void add(const LdTile& t) {
    MutexLock lock(mu);
    for (std::size_t i = 0; i < t.rows; ++i) {
      std::memcpy(values.data() + (t.row_begin + i) * cols + t.col_begin,
                  t.values + i * t.ld, t.cols * sizeof(double));
    }
    cells += t.rows * t.cols;
  }
};

void expect_identical(const Assembly& got, const Assembly& want,
                      const std::string& label) {
  ASSERT_EQ(got.cells, want.cells) << label << ": pair coverage differs";
  EXPECT_EQ(std::memcmp(got.values.data(), want.values.data(),
                        want.values.size() * sizeof(double)),
            0)
      << label << ": values diverge bitwise";
}

struct Case {
  std::size_t snps, samples, rows_per_shard;
  std::size_t kc_words, mc, nc;
  bool rare = false;  ///< rare-variant panel (hybrid dispatch)
};

/// The case's panel. A rare one sits under the auto sparse threshold, so
/// shard-adopted packs run the list kernels, across shard pairs too.
BitMatrix case_matrix(const Case& c, std::size_t snps, std::uint64_t seed) {
  if (!c.rare) return random_matrix(snps, c.samples, seed);
  MafSpectrumParams p;
  p.n_snps = snps;
  p.n_samples = c.samples;
  p.rare_fraction = 0.9;
  p.seed = seed;
  return simulate_maf_spectrum(p);
}

// Ragged everywhere: shard sizes off the row count, blocking off the shard
// sizes, sample counts off the word/ku grids. The third case leaves a
// 1-row final shard (row 96 of 97); the last two are rare-variant panels.
const Case kCases[] = {
    {61, 130, 17, 2, 8, 8},
    {97, 1025, 32, 4, 16, 16},
    {97, 391, 24, 3, 8, 32},
    {97, 1025, 24, 4, 16, 16, true},
    {70, 391, 17, 3, 8, 32, true},
};

class StreamIdentity
    : public ::testing::TestWithParam<std::tuple<KernelArch, Case>> {};

TEST_P(StreamIdentity, MatrixStreamMatchesStatScan) {
  const auto [arch, c] = GetParam();
  const BitMatrix g = case_matrix(c, c.snps, 13 + c.snps);
  GemmConfig cfg;
  cfg.arch = arch;
  cfg.kc_words = c.kc_words;
  cfg.mc = c.mc;
  cfg.nc = c.nc;

  const std::string path = temp_path("identity.ldshard");
  write_shard_store(path, g.view(), cfg, c.rows_per_shard);
  ShardStore store = ShardStore::open(path);
  EXPECT_EQ(store.shards(), (c.snps + c.rows_per_shard - 1) /
                                c.rows_per_shard);
  EXPECT_EQ(ShardStore::open(path).shard(0).hybrid_dispatch(), c.rare);

  for (const LdStatistic stat :
       {LdStatistic::kD, LdStatistic::kDPrime, LdStatistic::kRSquared}) {
    LdOptions opts;
    opts.stat = stat;
    opts.gemm = cfg;
    Assembly want(g.snps(), g.snps());
    ld_stat_scan(g, [&](const LdTile& t) { want.add(t); }, opts);

    for (const unsigned threads : {1u, 3u}) {
      StreamOptions sopts;
      sopts.stat = stat;
      sopts.threads = threads;
      Assembly got(g.snps(), g.snps());
      ld_matrix_stream(store, [&](const LdTile& t) { got.add(t); }, sopts);
      expect_identical(got, want,
                       "stat=" + std::to_string(static_cast<int>(stat)) +
                           " threads=" + std::to_string(threads));
    }
  }
}

TEST_P(StreamIdentity, CrossStreamMatchesCrossStatScan) {
  const auto [arch, c] = GetParam();
  const BitMatrix a = case_matrix(c, c.snps, 17 + c.snps);
  const BitMatrix b = case_matrix(c, c.snps / 2 + 3, 23 + c.snps);
  GemmConfig cfg;
  cfg.arch = arch;
  cfg.kc_words = c.kc_words;
  cfg.mc = c.mc;
  cfg.nc = c.nc;

  const std::string pa = temp_path("cross_a.ldshard");
  const std::string pb = temp_path("cross_b.ldshard");
  write_shard_store(pa, a.view(), cfg, c.rows_per_shard);
  write_shard_store(pb, b.view(), cfg, c.rows_per_shard + 5);
  ShardStore sa = ShardStore::open(pa);
  ShardStore sb = ShardStore::open(pb);

  LdOptions opts;
  opts.gemm = cfg;
  Assembly want(a.snps(), b.snps());
  ld_cross_stat_scan(a, b, [&](const LdTile& t) { want.add(t); }, opts);

  for (const unsigned threads : {1u, 3u}) {
    StreamOptions sopts;
    sopts.threads = threads;
    Assembly got(a.snps(), b.snps());
    ld_cross_stream(sa, sb, [&](const LdTile& t) { got.add(t); }, sopts);
    expect_identical(got, want, "cross threads=" + std::to_string(threads));
  }
}

std::vector<std::tuple<KernelArch, Case>> identity_cases() {
  std::vector<std::tuple<KernelArch, Case>> cases;
  for (const KernelArch arch : available_kernels()) {
    for (const Case& c : kCases) cases.emplace_back(arch, c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, StreamIdentity,
                         ::testing::ValuesIn(identity_cases()));

TEST(StreamBudget, ResidencyNeverExceedsTheBudgetAndResultsMatch) {
  const BitMatrix g = random_matrix(120, 700, 41);
  GemmConfig cfg;
  cfg.arch = KernelArch::kScalar;
  cfg.kc_words = 4;
  cfg.mc = 16;
  cfg.nc = 16;
  const std::string path = temp_path("budget.ldshard");
  write_shard_store(path, g.view(), cfg, /*rows_per_shard=*/16);
  ShardStore store = ShardStore::open(path);
  ASSERT_GE(store.shards(), 7u);

  LdOptions opts;
  opts.gemm = cfg;
  Assembly want(g.snps(), g.snps());
  ld_stat_scan(g, [&](const LdTile& t) { want.add(t); }, opts);

  {
    StreamOptions sopts;
    // The documented floor exactly: the tightest legal budget.
    sopts.cache_bytes = 4 * store.max_shard_bytes();
    std::size_t peak = 0;
    Assembly got(g.snps(), g.snps());
    ld_matrix_stream(store,
                     [&](const LdTile& t) {
                       got.add(t);
                       peak = std::max(peak, store.resident_bytes());
                     },
                     sopts);
    EXPECT_LE(peak, sopts.cache_bytes);
    EXPECT_LE(store.resident_bytes(), sopts.cache_bytes);
    EXPECT_GT(peak, 0u);
    expect_identical(got, want, "budget at the floor");
  }

  // Below-floor budgets are a contract violation, not a silent degrade.
  StreamOptions tiny;
  tiny.cache_bytes = store.max_shard_bytes();
  EXPECT_THROW(ld_matrix_stream(store, [](const LdTile&) {}, tiny),
               ContractViolation);
}

TEST(StreamBudget, CrossStreamHonorsBudgetAcrossTwoStores) {
  const BitMatrix a = random_matrix(60, 500, 3);
  const BitMatrix b = random_matrix(45, 500, 4);
  GemmConfig cfg;
  cfg.arch = KernelArch::kScalar;
  cfg.kc_words = 4;
  const std::string pa = temp_path("budget_a.ldshard");
  const std::string pb = temp_path("budget_b.ldshard");
  write_shard_store(pa, a.view(), cfg, 16);
  write_shard_store(pb, b.view(), cfg, 12);
  ShardStore sa = ShardStore::open(pa);
  ShardStore sb = ShardStore::open(pb);

  LdOptions opts;
  opts.gemm = cfg;
  Assembly want(a.snps(), b.snps());
  ld_cross_stat_scan(a, b, [&](const LdTile& t) { want.add(t); }, opts);

  StreamOptions sopts;
  sopts.cache_bytes = 2 * (sa.max_shard_bytes() + sb.max_shard_bytes());
  std::size_t peak = 0;
  Assembly got(a.snps(), b.snps());
  ld_cross_stream(sa, sb,
                  [&](const LdTile& t) {
                    got.add(t);
                    peak = std::max(peak,
                                    sa.resident_bytes() + sb.resident_bytes());
                  },
                  sopts);
  EXPECT_LE(peak, sopts.cache_bytes);
  expect_identical(got, want, "cross budget");
}

TEST(StreamContracts, RejectsNullVisitorAndMismatchedStores) {
  const BitMatrix g = random_matrix(20, 100, 9);
  GemmConfig cfg;
  cfg.arch = KernelArch::kScalar;
  const std::string p1 = temp_path("contract1.ldshard");
  write_shard_store(p1, g.view(), cfg, 10);
  ShardStore s1 = ShardStore::open(p1);
  EXPECT_THROW(ld_matrix_stream(s1, nullptr), ContractViolation);

  // Different sample universe.
  const BitMatrix h = random_matrix(20, 130, 10);
  const std::string p2 = temp_path("contract2.ldshard");
  write_shard_store(p2, h.view(), cfg, 10);
  ShardStore s2 = ShardStore::open(p2);
  EXPECT_THROW(ld_cross_stream(s1, s2, [](const LdTile&) {}),
               ContractViolation);
}

}  // namespace
}  // namespace ldla
