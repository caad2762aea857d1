// Team-size sweep of the one tile nest: gemm_count_fused and
// syrk_count_fused must match the naive pair counts across kernel arch x
// blocking params x ragged shapes x team sizes, with every in-range (gemm)
// / canonical (syrk) element delivered exactly once. The team packing path
// must also be byte-identical to a sequential pack.
#include "core/gemm/macro.hpp"

#include <array>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/naive.hpp"
#include "core/gemm/kernel.hpp"
#include "core/gemm/syrk.hpp"
#include "sim/rng.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

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
// word boundaries so zero-padded words are always in play.
const std::vector<std::pair<std::size_t, std::size_t>> kShapes = {
    {5, 100}, {33, 323}, {70, 129}, {128, 1000}};

// Team sizes around the interesting boundaries: 1 (whole cache tiles,
// inline), 2, a non-power-of-two, and more members than most shapes have
// chunks.
const std::vector<unsigned> kTeams = {1, 2, 7, 16};

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

// Dense per-element capture of a tile stream over the rectangle
// [r0, r1) x [c0, c1). Records each in-window element exactly once (a
// duplicate delivery fails the test). With lower_only the window is the
// SYRK band 0 <= gi - gj <= width — the slack of register tiles that
// straddle the diagonal or the band edge is ignored, exactly as the real
// consumers ignore it.
struct ElementCapture {
  std::size_t r0, r1, c0, c1;
  bool lower_only;  ///< restrict the window to the band below
  std::size_t width;
  std::vector<std::uint32_t> counts;
  std::vector<std::uint8_t> seen;
  std::mutex mu;
  bool duplicate = false;

  ElementCapture(std::size_t row_begin, std::size_t row_end,
                 std::size_t col_begin, std::size_t col_end, bool lower,
                 std::size_t band_width = kUnboundedBand)
      : r0(row_begin), r1(row_end), c0(col_begin), c1(col_end),
        lower_only(lower), width(band_width),
        counts((row_end - row_begin) * (col_end - col_begin)),
        seen((row_end - row_begin) * (col_end - col_begin)) {}

  bool in_window(std::size_t gi, std::size_t gj) const {
    return !lower_only || (gj <= gi && gi - gj <= width);
  }

  CountTileSink sink() {
    return [this](const CountTile& t) {
      const std::lock_guard<std::mutex> lock(mu);
      for (std::size_t i = 0; i < t.rows; ++i) {
        const std::size_t gi = t.row_begin + i;
        for (std::size_t j = 0; j < t.cols; ++j) {
          const std::size_t gj = t.col_begin + j;
          if (!in_window(gi, gj)) continue;
          const std::size_t at = (gi - r0) * (c1 - c0) + (gj - c0);
          if (seen[at]) duplicate = true;
          seen[at] = 1;
          counts[at] = t.row(i)[j];
        }
      }
    };
  }
};

// Every in-window element (gemm) / canonical element (syrk) delivered
// exactly once, and equal to the naive popcount of its row pair.
void expect_naive_capture(const ElementCapture& got, const CountMatrix& naive,
                          const char* what, unsigned team) {
  ASSERT_FALSE(got.duplicate) << what << " team=" << team
                              << ": element delivered twice";
  for (std::size_t gi = got.r0; gi < got.r1; ++gi) {
    for (std::size_t gj = got.c0; gj < got.c1; ++gj) {
      if (!got.in_window(gi, gj)) continue;
      const std::size_t at = (gi - got.r0) * (got.c1 - got.c0) + (gj - got.c0);
      ASSERT_TRUE(got.seen[at] != 0)
          << what << " team=" << team << " missed (" << gi << ", " << gj << ")";
      ASSERT_EQ(got.counts[at], naive(gi, gj))
          << what << " team=" << team << " at (" << gi << ", " << gj << ")";
    }
  }
}

class ParallelNest : public ::testing::TestWithParam<KernelArch> {};

TEST_P(ParallelNest, GemmMatchesNaiveAtEveryTeamSize) {
  for (const auto& [n, k] : kShapes) {
    const BitMatrix a = random_matrix(n, k, n * 131 + k);
    const BitMatrix b = random_matrix(n + 11, k, n * 137 + k + 1);
    const CountMatrix naive = naive_count_matrix(a, b);
    for (const GemmConfig& cfg : blocking_configs(GetParam())) {
      const GemmPlan plan = resolve_plan(cfg, a.view().n_words);
      const PackedBitMatrix pa(a.view(), plan, PackSides::kA);
      const PackedBitMatrix pb(b.view(), plan, PackSides::kB);
      for (const unsigned team : kTeams) {
        ElementCapture got(0, n, 0, b.snps(), /*lower=*/false);
        gemm_count_fused(pa, 0, n, pb, 0, b.snps(), got.sink(), team);
        expect_naive_capture(got, naive, "gemm full", team);
      }
    }
  }
}

TEST_P(ParallelNest, GemmSubRangesMatchNaive) {
  // Ranges that start and end off every register-tile boundary, so the
  // chunk grid's ic0/jc0 snapping and clamp windows are all exercised.
  const BitMatrix a = random_matrix(61, 517, 21);
  const BitMatrix b = random_matrix(83, 517, 22);
  const CountMatrix naive = naive_count_matrix(a, b);
  for (const GemmConfig& cfg : blocking_configs(GetParam())) {
    const GemmPlan plan = resolve_plan(cfg, a.view().n_words);
    const PackedBitMatrix pa(a.view(), plan, PackSides::kA);
    const PackedBitMatrix pb(b.view(), plan, PackSides::kB);
    for (const auto& [a0, a1, b0, b1] :
         std::vector<std::array<std::size_t, 4>>{
             {3, 58, 5, 77}, {7, 12, 41, 42}, {0, 61, 19, 83}}) {
      for (const unsigned team : kTeams) {
        ElementCapture got(a0, a1, b0, b1, /*lower=*/false);
        gemm_count_fused(pa, a0, a1, pb, b0, b1, got.sink(), team);
        expect_naive_capture(got, naive, "gemm subrange", team);
      }
    }
  }
}

TEST_P(ParallelNest, SyrkMatchesNaiveAtEveryTeamSize) {
  for (const auto& [n, k] : kShapes) {
    const BitMatrix g = random_matrix(n, k, n * 149 + k);
    const CountMatrix naive = naive_count_matrix(g, g);
    for (const GemmConfig& cfg : blocking_configs(GetParam())) {
      const GemmPlan plan = resolve_plan(cfg, g.view().n_words);
      const PackedBitMatrix pg(g.view(), plan, PackSides::kBoth);
      for (const unsigned team : kTeams) {
        ElementCapture got(0, n, 0, n, /*lower=*/true);
        syrk_count_fused(pg, 0, n, got.sink(), team);
        expect_naive_capture(got, naive, "syrk full", team);
      }
    }
  }
}

TEST_P(ParallelNest, SyrkSubRangesMatchNaive) {
  const BitMatrix g = random_matrix(90, 413, 23);
  const CountMatrix naive = naive_count_matrix(g, g);
  for (const GemmConfig& cfg : blocking_configs(GetParam())) {
    const GemmPlan plan = resolve_plan(cfg, g.view().n_words);
    const PackedBitMatrix pg(g.view(), plan, PackSides::kBoth);
    for (const auto& [r0, r1] : std::vector<std::pair<std::size_t, std::size_t>>{
             {3, 87}, {17, 33}, {0, 90}, {41, 42}}) {
      for (const unsigned team : kTeams) {
        ElementCapture got(r0, r1, r0, r1, /*lower=*/true);
        syrk_count_fused(pg, r0, r1, got.sink(), team);
        expect_naive_capture(got, naive, "syrk subrange", team);
      }
    }
  }
}

TEST_P(ParallelNest, SyrkBandsMatchNaive) {
  // Bounded bands whose columns start before the row window, with widths
  // under and over the register tile and the window: every in-band element
  // exactly once, equal to the naive count.
  const BitMatrix g = random_matrix(90, 413, 29);
  const CountMatrix naive = naive_count_matrix(g, g);
  struct Window {
    std::size_t r0, r1, lead;
  };
  for (const GemmConfig& cfg : blocking_configs(GetParam())) {
    const GemmPlan plan = resolve_plan(cfg, g.view().n_words);
    const PackedBitMatrix pg(g.view(), plan, PackSides::kBoth);
    for (const Window& w : {Window{40, 87, 40}, Window{17, 33, 5},
                            Window{3, 90, 3}, Window{64, 90, 13}}) {
      for (const std::size_t width : {0u, 1u, 6u, 13u, 200u}) {
        for (const unsigned team : kTeams) {
          ElementCapture got(w.r0, w.r1, w.r0 - w.lead, w.r1,
                             /*lower=*/true, width);
          syrk_count_fused(pg, w.r0, w.r1, got.sink(), team,
                           SyrkBand{w.lead, width});
          expect_naive_capture(got, naive, "syrk band", team);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, ParallelNest, ::testing::ValuesIn(available_kernels()),
    [](const ::testing::TestParamInfo<KernelArch>& param_info) {
      std::string name = kernel_arch_name(param_info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ParallelPack, TeamPackIsByteIdenticalToSequential) {
  const BitMatrix g = random_matrix(77, 700, 31);
  GemmConfig cfg;
  cfg.kc_words = 3;
  const GemmPlan plan = resolve_plan(cfg, g.view().n_words);
  const PackedBitMatrix seq(g.view(), plan, PackSides::kBoth, /*threads=*/1);
  for (const unsigned threads : {2u, 5u, 16u}) {
    const PackedBitMatrix par(g.view(), plan, PackSides::kBoth, threads);
    ASSERT_EQ(par.panels(), seq.panels());
    ASSERT_EQ(par.a_data_words(), seq.a_data_words());
    for (std::size_t w = 0; w < seq.a_data_words(); ++w) {
      ASSERT_EQ(par.a_data()[w], seq.a_data()[w])
          << "threads=" << threads << " A word " << w;
    }
    ASSERT_EQ(par.b_data_words(), seq.b_data_words());
    for (std::size_t w = 0; w < seq.b_data_words(); ++w) {
      ASSERT_EQ(par.b_data()[w], seq.b_data()[w])
          << "threads=" << threads << " B word " << w;
    }
  }
}

TEST(FusedDriverContracts, RejectsBadRangesAndMissingSink) {
  const BitMatrix g = random_matrix(10, 64, 41);
  const GemmPlan plan = resolve_plan({}, g.view().n_words);
  const PackedBitMatrix pg(g.view(), plan, PackSides::kBoth);
  for (const unsigned team : {1u, 4u}) {
    EXPECT_THROW(
        syrk_count_fused(pg, 0, 11, [](const CountTile&) {}, team),
        ContractViolation);
    EXPECT_THROW(syrk_count_fused(pg, 0, 10, nullptr, team),
                 ContractViolation);
    EXPECT_THROW(syrk_count_fused(pg, 2, 10, [](const CountTile&) {}, team,
                                  SyrkBand{3}),
                 ContractViolation);
    EXPECT_THROW(
        gemm_count_fused(pg, 0, 11, pg, 0, 10, [](const CountTile&) {}, team),
        ContractViolation);
    EXPECT_THROW(gemm_count_fused(pg, 0, 10, pg, 0, 10, nullptr, team),
                 ContractViolation);
  }
}

TEST(FusedDriverContracts, EmptyRangeIsANoop) {
  const BitMatrix g = random_matrix(10, 64, 43);
  const GemmPlan plan = resolve_plan({}, g.view().n_words);
  const PackedBitMatrix pg(g.view(), plan, PackSides::kBoth);
  bool called = false;
  for (const unsigned team : {1u, 8u}) {
    syrk_count_fused(pg, 4, 4, [&](const CountTile&) { called = true; }, team);
    gemm_count_fused(pg, 0, 0, pg, 0, 10,
                     [&](const CountTile&) { called = true; }, team);
  }
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace ldla
