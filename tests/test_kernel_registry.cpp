// Kernel registry + generated-variant correctness + tuning-cache tests.
//
// The registry (dispatch.cpp) concatenates the per-TU variant tables that
// kernels_*.cpp instantiate from the kernel_gen.hpp templates; every
// variant must be bit-identical to the scalar semiring definition over the
// adversarial panel shapes (ragged kc, unaligned ldc, saturated/empty
// operands), or the tuner could silently select a wrong kernel.

#include "core/gemm/kernel.hpp"

#include <atomic>
#include <bit>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/naive.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/packed_bit_matrix.hpp"
#include "core/gemm/packing.hpp"
#include "core/gemm/syrk.hpp"
#include "core/gemm/tune_cache.hpp"
#include "count_sink.hpp"
#include "sim/rng.hpp"
#include "util/aligned_buffer.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

BitMatrix random_matrix(std::size_t snps, std::size_t samples,
                        std::uint64_t seed, double density = 0.4) {
  Rng rng(seed);
  BitMatrix m(snps, samples);
  for (std::size_t s = 0; s < snps; ++s) {
    for (std::size_t b = 0; b < samples; ++b) {
      if (rng.next_bool(density)) m.set(s, b, true);
    }
  }
  return m;
}

BitMatrix constant_matrix(std::size_t snps, std::size_t samples, bool value) {
  BitMatrix m(snps, samples);
  if (value) {
    for (std::size_t s = 0; s < snps; ++s) {
      for (std::size_t b = 0; b < samples; ++b) m.set(s, b, true);
    }
  }
  return m;
}

TEST(KernelRegistry, GeometryInvariants) {
  std::set<std::tuple<KernelArch, std::size_t, std::size_t, std::size_t>> ids;
  std::set<std::string> names;
  std::set<KernelArch> defaults;
  for (const KernelInfo& k : kernel_registry()) {
    EXPECT_NE(k.fn, nullptr) << k.name;
    EXPECT_NE(k.ku, 0u) << k.name;
    EXPECT_EQ(64 % k.mr, 0u) << k.name;  // sparse transpose gather contract
    EXPECT_EQ(64 % k.nr, 0u) << k.name;
    EXPECT_LE(k.mr * k.nr, 256u) << k.name;  // drivers' edge-tile scratch
    EXPECT_TRUE(ids.emplace(k.arch, k.mr, k.nr, k.ku).second)
        << "duplicate identity: " << k.name;
    EXPECT_TRUE(names.emplace(k.name).second) << "duplicate name: " << k.name;
    if (k.family_default) {
      EXPECT_TRUE(defaults.insert(k.arch).second)
          << "two family defaults for one arch: " << k.name;
    }
  }
  // Every family in the registry carries exactly one default geometry.
  for (const KernelInfo& k : kernel_registry()) {
    EXPECT_EQ(defaults.count(k.arch), 1u) << kernel_arch_name(k.arch);
  }
}

TEST(KernelRegistry, GridBreadthOnThisMachine) {
  const std::size_t n = available_kernel_variants().size();
  if (kernel_available(KernelArch::kAvx512)) {
    EXPECT_GE(n, 12u);
  } else if (kernel_available(KernelArch::kAvx2)) {
    EXPECT_GE(n, 8u);
  } else {
    EXPECT_GE(n, 5u);  // scalar grid + swar are always available
  }
}

TEST(KernelRegistry, LookupsRoundTrip) {
  for (const KernelInfo* k : available_kernel_variants()) {
    const KernelInfo* by_geo = find_kernel(k->arch, k->mr, k->nr, k->ku);
    ASSERT_NE(by_geo, nullptr);
    EXPECT_EQ(by_geo, k);
    const KernelInfo* by_name = find_kernel(std::string_view(k->name));
    ASSERT_NE(by_name, nullptr);
    EXPECT_EQ(by_name, k);
  }
  EXPECT_EQ(find_kernel(KernelArch::kScalar, 3, 5, 7), nullptr);
  EXPECT_EQ(find_kernel("no-such-variant"), nullptr);
  const KernelInfo& def = kernel_info(KernelArch::kScalar);
  EXPECT_TRUE(def.family_default);
}

TEST(KernelRegistry, KernelForPlanRejectsUnknownGeometry) {
  GemmPlan plan;  // defaults name the scalar family default
  const KernelInfo& k = kernel_for_plan(plan);
  EXPECT_EQ(k.arch, KernelArch::kScalar);
  plan.mr = 3;
  EXPECT_THROW(kernel_for_plan(plan), ContractViolation);
}

// Direct micro-kernel invocation against the semiring definition, per
// variant, over ragged kc (padded to each variant's ku), unaligned ldc,
// and saturated / empty operands.
class VariantOracle : public ::testing::TestWithParam<const KernelInfo*> {};

void run_direct_oracle(const KernelInfo& k, const BitMatrix& a,
                       const BitMatrix& b, std::size_t ldc_extra) {
  const std::size_t n_words = a.words_per_snp();
  const std::size_t kcp = (n_words + k.ku - 1) / k.ku * k.ku;
  AlignedBuffer<std::uint64_t> ap(packed_panel_words(k.mr, n_words, k.mr,
                                                     k.ku));
  AlignedBuffer<std::uint64_t> bp(packed_panel_words(k.nr, n_words, k.nr,
                                                     k.ku));
  pack_panel(a.view(), 0, k.mr, 0, n_words, k.mr, k.ku, ap.data());
  pack_panel(b.view(), 0, k.nr, 0, n_words, k.nr, k.ku, bp.data());

  const std::size_t ldc = k.nr + ldc_extra;
  std::vector<std::uint32_t> c(k.mr * ldc, 7);  // nonzero: beta=1 semantics
  k.fn(kcp, ap.data(), bp.data(), c.data(), ldc);

  for (std::size_t i = 0; i < k.mr; ++i) {
    for (std::size_t j = 0; j < k.nr; ++j) {
      std::uint64_t want = 0;
      if (i < a.snps() && j < b.snps()) {
        for (std::size_t w = 0; w < n_words; ++w) {
          want += static_cast<std::uint64_t>(
              std::popcount(a.row_data(i)[w] & b.row_data(j)[w]));
        }
      }
      ASSERT_EQ(c[i * ldc + j], want + 7)
          << k.name << " at (" << i << ", " << j << ") kc=" << kcp
          << " ldc=" << ldc;
    }
  }
  // Columns beyond nr must be untouched (the ldc contract).
  for (std::size_t i = 0; i < k.mr; ++i) {
    for (std::size_t j = k.nr; j < ldc; ++j) {
      ASSERT_EQ(c[i * ldc + j], 7u) << k.name << " wrote past nr";
    }
  }
}

TEST_P(VariantOracle, BitIdenticalToScalarSemiring) {
  const KernelInfo& k = *GetParam();
  // Ragged kc sweep: 1, a non-power shape, and a multi-chunk extent, each
  // padded up to the variant's ku by the packer.
  for (const std::size_t words : {std::size_t{1}, std::size_t{3} * k.ku,
                                  std::size_t{8} * k.ku + 1}) {
    const std::size_t samples = words * 64 - 17;  // ragged last word
    for (const std::size_t ldc_extra : {std::size_t{0}, std::size_t{3}}) {
      run_direct_oracle(k, random_matrix(k.mr, samples, 1000 + words),
                        random_matrix(k.nr, samples, 2000 + words),
                        ldc_extra);
    }
  }
  // Saturated and empty panels: the positional accumulators of the wider
  // kernels must survive all-ones rows without lane overflow.
  const std::size_t samples = 5 * 64 * k.ku;
  run_direct_oracle(k, constant_matrix(k.mr, samples, true),
                    constant_matrix(k.nr, samples, true), 0);
  run_direct_oracle(k, constant_matrix(k.mr, samples, false),
                    constant_matrix(k.nr, samples, false), 0);
  run_direct_oracle(k, constant_matrix(k.mr, samples, true),
                    random_matrix(k.nr, samples, 77), 0);
}

// The same variants driven through the full macro loop (packing, blocking,
// edge tiles) with the registry geometry forced via GemmConfig.
TEST_P(VariantOracle, GemmCountMatchesNaive) {
  const KernelInfo& k = *GetParam();
  const BitMatrix a = random_matrix(2 * k.mr + 3, 700, 5);
  const BitMatrix b = random_matrix(2 * k.nr + 5, 700, 6);
  GemmConfig cfg;
  cfg.arch = k.arch;
  cfg.mr = k.mr;
  cfg.nr = k.nr;
  cfg.ku = k.ku;
  cfg.kc_words = 4;  // force multiple k panels
  const CountMatrix c = test::count_product(a.view(), b.view(), cfg);
  const CountMatrix expected = naive_count_matrix(a, b);
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      ASSERT_EQ(c(i, j), expected(i, j))
          << k.name << " at (" << i << ", " << j << ")";
    }
  }
}

std::string variant_test_name(
    const ::testing::TestParamInfo<const KernelInfo*>& info) {
  std::string name = info.param->name;
  for (char& ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAvailable, VariantOracle,
                         ::testing::ValuesIn(available_kernel_variants()),
                         variant_test_name);

// --------------------------------------------------------------------------
// Tuning cache (explicit-path seams; the env-selected path is the same code
// behind a memo).

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(TuneCache, RoundTripAndByteIdentity) {
  const std::string path = ::testing::TempDir() + "/ldla_tune_rt.json";
  std::remove(path.c_str());

  TuneCacheEntry e;
  e.variant = kernel_info(KernelArch::kScalar).name;
  e.kc_words = 128;
  e.mc = 64;
  ASSERT_TRUE(tune_cache_store_at(path, 100, e));

  const auto hit = tune_cache_lookup_at(path, 100);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->variant, e.variant);
  EXPECT_EQ(hit->kc_words, e.kc_words);
  EXPECT_EQ(hit->mc, e.mc);

  // Same shape bucket (ceil-log2): 100 and 127 share a decision; 1000 does
  // not and must miss.
  EXPECT_EQ(tune_shape_bucket(100), tune_shape_bucket(127));
  EXPECT_TRUE(tune_cache_lookup_at(path, 127).has_value());
  EXPECT_FALSE(tune_cache_lookup_at(path, 1000).has_value());

  // Re-storing the identical entry must not rewrite the file (the CI
  // byte-identity gate relies on this).
  const std::string before = slurp(path);
  ASSERT_FALSE(before.empty());
  ASSERT_TRUE(tune_cache_store_at(path, 100, e));
  EXPECT_EQ(slurp(path), before);

  // A second bucket coexists with the first.
  TuneCacheEntry e2 = e;
  e2.kc_words = 256;
  ASSERT_TRUE(tune_cache_store_at(path, 1000, e2));
  ASSERT_TRUE(tune_cache_lookup_at(path, 100).has_value());
  const auto hit2 = tune_cache_lookup_at(path, 1000);
  ASSERT_TRUE(hit2.has_value());
  EXPECT_EQ(hit2->kc_words, 256u);
  std::remove(path.c_str());
}

TEST(TuneCache, CorruptFileIsAnEmptyCache) {
  const std::string path = ::testing::TempDir() + "/ldla_tune_bad.json";
  for (const char* junk :
       {"", "not json at all", "{\"schema\": \"wrong\", \"entries\": {}}",
        "{\"schema\": \"ldla-tune-cache-v1\", \"cpu\": \"x\", \"entries\":",
        "{\"schema\": \"ldla-tune-cache-v1\"}trailing"}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << junk;
    }
    EXPECT_FALSE(tune_cache_lookup_at(path, 100).has_value()) << junk;
    // A store over the corrupt file recovers it (re-tune, then persist).
    TuneCacheEntry e;
    e.variant = "scalar-4x4";
    e.kc_words = 64;
    e.mc = 32;
    ASSERT_TRUE(tune_cache_store_at(path, 100, e)) << junk;
    EXPECT_TRUE(tune_cache_lookup_at(path, 100).has_value()) << junk;
  }
  std::remove(path.c_str());
}

TEST(TuneCache, ForeignCpuSignatureIsIgnored) {
  const std::string path = ::testing::TempDir() + "/ldla_tune_cpu.json";
  TuneCacheEntry e;
  e.variant = "scalar-4x4";
  e.kc_words = 64;
  e.mc = 32;
  ASSERT_TRUE(tune_cache_store_at(path, 100, e));
  std::string text = slurp(path);
  // Swap the recorded signature for another machine's.
  const std::string sig = tune_cache_cpu_signature();
  const std::size_t at = text.find(sig.substr(0, 8));
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 8, "other-pc");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  EXPECT_FALSE(tune_cache_lookup_at(path, 100).has_value());
  std::remove(path.c_str());
}

TEST(TuneCache, ShapeBucketIsCeilLog2) {
  EXPECT_EQ(tune_shape_bucket(0), 0u);
  EXPECT_EQ(tune_shape_bucket(1), 0u);
  EXPECT_EQ(tune_shape_bucket(2), 1u);
  EXPECT_EQ(tune_shape_bucket(3), 2u);
  EXPECT_EQ(tune_shape_bucket(256), 8u);
  EXPECT_EQ(tune_shape_bucket(257), 9u);
}

// resolve_plan honors an explicit registry geometry and rejects one the
// build never compiled.
TEST(ResolvePlan, ExplicitGeometrySelectsVariant) {
  GemmConfig cfg;
  cfg.arch = KernelArch::kScalar;
  cfg.mr = 2;
  cfg.nr = 8;
  cfg.ku = 1;
  const GemmPlan plan = resolve_plan(cfg, 64);
  EXPECT_EQ(plan.mr, 2u);
  EXPECT_EQ(plan.nr, 8u);
  EXPECT_EQ(plan.ku, 1u);
  EXPECT_EQ(&kernel_for_plan(plan), find_kernel(KernelArch::kScalar, 2, 8, 1));
}

TEST(ResolvePlan, OddRowBlockRoundsToEvenForOneRowTiles) {
  // Tile rows start at multiples of mc, and the multi-plane drivers need
  // every tile edge on a multiple of kTileEdgeRows (4): mr = 1 with mc = 5
  // must resolve to mc = 8.
  std::size_t checked = 0;
  for (const KernelInfo* k : available_kernel_variants()) {
    if (k->mr != 1) continue;
    GemmConfig cfg;
    cfg.arch = k->arch;
    cfg.mr = k->mr;
    cfg.nr = k->nr;
    cfg.ku = k->ku;
    cfg.mc = 5;
    EXPECT_EQ(resolve_plan(cfg, 64).mc, 8u) << k->name;
    ++checked;
  }
  if (checked == 0) GTEST_SKIP() << "no mr = 1 variant runs on this CPU";
}

TEST(ResolvePlan, EveryTileEdgeIsAMultipleOfFourRows) {
  // Small odd blocks (mc 5, nc 6) on every variant, through both fused
  // drivers at teams {1, 2, 4}: no tile edge may split a group of
  // kTileEdgeRows operand rows.
  static_assert(kTileEdgeRows == 4);
  const BitMatrix a = random_matrix(4 * 37, 200, 31);
  const BitMatrix b = random_matrix(4 * 29, 200, 32);
  const auto on_edge = [](const CountTile& t) {
    return t.row_begin % 4 == 0 && t.rows % 4 == 0 && t.col_begin % 4 == 0 &&
           t.cols % 4 == 0;
  };
  for (const KernelInfo* k : available_kernel_variants()) {
    GemmConfig cfg;
    cfg.arch = k->arch;
    cfg.mr = k->mr;
    cfg.nr = k->nr;
    cfg.ku = k->ku;
    cfg.mc = 5;
    cfg.nc = 6;
    const PackedBitMatrix pa = PackedBitMatrix::pack(a.view(), cfg);
    const PackedBitMatrix pb =
        PackedBitMatrix::pack(b.view(), cfg, PackSides::kB);
    for (const unsigned team : {1u, 2u, 4u}) {
      std::atomic<std::size_t> tiles{0};
      std::atomic<std::size_t> split{0};
      const CountTileSink check = [&](const CountTile& t) {
        ++tiles;
        if (!on_edge(t)) ++split;
      };
      gemm_count_fused(pa, 0, a.snps(), pb, 0, b.snps(), check, team);
      syrk_count_fused(pa, 0, a.snps(), check, team);
      EXPECT_GT(tiles.load(), 2u) << k->name << " team " << team;
      EXPECT_EQ(split.load(), 0u) << k->name << " team " << team;
    }
  }
}

TEST(ResolvePlan, UnknownGeometryThrows) {
  GemmConfig cfg;
  cfg.arch = KernelArch::kScalar;
  cfg.mr = 3;
  cfg.nr = 4;
  cfg.ku = 1;
  EXPECT_THROW(resolve_plan(cfg, 64), ContractViolation);
  GemmConfig partial;
  partial.mr = 4;  // nr/ku unset: all-or-nothing contract
  EXPECT_THROW(resolve_plan(partial, 64), ContractViolation);
}

}  // namespace
}  // namespace ldla
