// Counter-exactness and span-nesting tests for the tracing layer.
//
// The phase counters are specified as *exact*: for a resolved GemmPlan the
// traced kernel/pack/tile counts must equal the analytic values implied by
// the blocking (DESIGN.md "Observability"). The walkers below mirror the
// documented loop structure of gemm_count_fused / syrk_count_fused (and
// the syrk_count_packed count sink) and PackedBitMatrix::pack_side; any
// drift between the drivers and their instrumentation shows up here as an
// off-by-a-tile mismatch.
//
// Counter deltas are read with trace::snapshot().since(before), which is
// exact as long as no unrelated instrumented work runs concurrently — true
// inside a test binary.
#include "util/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/band.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/syrk.hpp"
#include "core/ld.hpp"
#include "core/ld_stream.hpp"
#include "core/parallel.hpp"
#include "count_sink.hpp"
#include "omega/sweep_scan.hpp"
#include "phase_counter_names.hpp"
#include "sim/rng.hpp"
#include "util/thread_pool.hpp"

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

// Small blocking so a modest problem still crosses several cache blocks
// and k panels (the interesting counter geometry).
GemmConfig small_blocking(KernelArch arch) {
  GemmConfig cfg;
  cfg.arch = arch;
  cfg.kc_words = 8;
  cfg.mc = 16;
  cfg.nc = 16;
  return cfg;
}

// What one traced driver call should have counted.
struct Expected {
  std::uint64_t kernel_calls = 0;
  std::uint64_t kernel_words = 0;
  std::uint64_t tiles_emitted = 0;
  std::uint64_t slivers_reused = 0;
  std::uint64_t epilogue_rows = 0;  ///< sum of in-range tile rows (fused)
};

// Analytic mirror of gemm_count_fused: jc (nc) -> ic (mc) tiles, with the
// panel loop innermost; one CountTile per cache tile.
Expected expect_fused(const PackedBitMatrix& p, std::size_t a_begin,
                      std::size_t a_end, std::size_t b_begin,
                      std::size_t b_end) {
  const GemmPlan& plan = p.plan();
  const std::size_t mr = plan.mr;
  const std::size_t nr = plan.nr;
  const std::size_t ic0 = a_begin / mr * mr;
  const std::size_t jc0 = b_begin / nr * nr;
  const std::size_t a_pad = (a_end + mr - 1) / mr * mr;
  const std::size_t b_pad = (b_end + nr - 1) / nr * nr;
  Expected e;
  for (std::size_t jc = jc0; jc < b_end; jc += plan.nc) {
    const std::size_t jc_end = std::min(jc + plan.nc, b_pad);
    const std::size_t tile_cols = jc_end - jc;
    for (std::size_t ic = ic0; ic < a_end; ic += plan.mc) {
      const std::size_t ic_end = std::min(ic + plan.mc, a_pad);
      const std::size_t tile_rows = ic_end - ic;
      e.tiles_emitted += 1;
      for (std::size_t panel = 0; panel < p.panels(); ++panel) {
        const std::uint64_t kcp = p.panel_kc_padded(panel);
        e.kernel_calls += static_cast<std::uint64_t>((tile_cols / nr) *
                                                     (tile_rows / mr));
        e.kernel_words +=
            static_cast<std::uint64_t>(tile_rows * tile_cols) * kcp;
        e.slivers_reused += tile_cols / nr + tile_rows / mr;
      }
      e.epilogue_rows += std::min(ic_end, a_end) - std::max(ic, a_begin);
    }
  }
  return e;
}

// Analytic mirror of syrk_count_fused over [row_begin, row_end)² at a team
// of one: jc (nc) -> ic (mc) cache tiles, where each panel's row blocks
// start at the mc block holding its diagonal, and register tiles lying
// strictly above the diagonal (row sliver ends at or before the column
// sliver starts) are never handed to the micro-kernel. Dense operands
// only: every remaining register tile is one kernel call per k panel.
Expected expect_fused_lower(const PackedBitMatrix& p, std::size_t row_begin,
                            std::size_t row_end) {
  const GemmPlan& plan = p.plan();
  const std::size_t mr = plan.mr;
  const std::size_t nr = plan.nr;
  const std::size_t ic0 = row_begin / mr * mr;
  const std::size_t jc0 = row_begin / nr * nr;
  const std::size_t i_pad = (row_end + mr - 1) / mr * mr;
  const std::size_t j_pad = (row_end + nr - 1) / nr * nr;
  Expected e;
  for (std::size_t jc = jc0; jc < row_end; jc += plan.nc) {
    const std::size_t jc_end = std::min(jc + plan.nc, j_pad);
    std::size_t ic = ic0;
    while (ic + plan.mc <= jc) ic += plan.mc;
    for (; ic < row_end; ic += plan.mc) {
      const std::size_t ic_end = std::min(ic + plan.mc, i_pad);
      std::uint64_t live = 0;  // register tiles touching the lower triangle
      for (std::size_t jr = jc; jr < jc_end; jr += nr) {
        for (std::size_t ir = ic; ir < ic_end; ir += mr) {
          if (ir + mr > jr) ++live;
        }
      }
      e.tiles_emitted += 1;
      for (std::size_t panel = 0; panel < p.panels(); ++panel) {
        const std::uint64_t kcp = p.panel_kc_padded(panel);
        e.kernel_calls += live;
        e.kernel_words += live * mr * nr * kcp;
        e.slivers_reused += (jc_end - jc) / nr + (ic_end - ic) / mr;
      }
      e.epilogue_rows +=
          std::min(ic_end, row_end) - std::max(ic, row_begin);
    }
  }
  return e;
}

struct Shape {
  std::size_t m, n, samples;
};

// Ragged on every axis: m, n off register-tile multiples; samples chosen so
// the word count is off the ku and kc_words grids.
const Shape kShapes[] = {
    {33, 47, 130},   // 3 words: single short k panel
    {64, 64, 4099},  // 65 words: full tiles, ragged k panels
    {37, 91, 1025},  // 17 words: everything ragged
};

class TraceCounters
    : public ::testing::TestWithParam<std::tuple<KernelArch, Shape>> {
 protected:
  void SetUp() override {
    if (!trace::compiled()) {
      GTEST_SKIP() << "built with LDLA_TRACE=OFF";
    }
  }
};

TEST_P(TraceCounters, CountSinkMatchesAnalyticBlocking) {
  const auto [arch, shape] = GetParam();
  const BitMatrix g = random_matrix(shape.m, shape.samples, 7 + shape.m);
  const GemmConfig cfg = small_blocking(arch);
  const GemmPlan plan = gemm_plan_for(g.view(), cfg);
  const PackedBitMatrix p(g.view(), plan, PackSides::kBoth);

  CountMatrix c(shape.m, shape.m);
  const trace::TraceSnapshot before = trace::snapshot();
  syrk_count_packed(p, 0, shape.m, c.ref());
  const trace::TraceSnapshot d = trace::snapshot().since(before);

  // The count matrix is a sink of the fused nest: same tiles, no stat
  // epilogue.
  const Expected e = expect_fused_lower(p, 0, shape.m);
  EXPECT_EQ(d.counters.kernel_calls, e.kernel_calls);
  EXPECT_EQ(d.counters.kernel_words, e.kernel_words);
  EXPECT_EQ(d.counters.slivers_reused, e.slivers_reused);
  EXPECT_EQ(d.counters.tiles_emitted, e.tiles_emitted);
  EXPECT_EQ(d.counters.epilogue_rows, 0u);
  EXPECT_EQ(d.counters.slivers_packed, 0u);  // persistent pack: no repack
  EXPECT_EQ(d.counters.bytes_packed, 0u);
}

TEST_P(TraceCounters, FusedMatchesAnalyticBlocking) {
  const auto [arch, shape] = GetParam();
  const BitMatrix a = random_matrix(shape.m, shape.samples, 7 + shape.m);
  const BitMatrix b = random_matrix(shape.n, shape.samples, 11 + shape.n);
  const GemmConfig cfg = small_blocking(arch);
  const GemmPlan plan = gemm_plan_for(a.view(), cfg);
  const PackedBitMatrix pa(a.view(), plan, PackSides::kA);
  const PackedBitMatrix pb(b.view(), plan, PackSides::kB);

  std::uint64_t sink_rows = 0;
  std::uint64_t sink_tiles = 0;
  const trace::TraceSnapshot before = trace::snapshot();
  gemm_count_fused(pa, 0, shape.m, pb, 0, shape.n, [&](const CountTile& t) {
    sink_rows += t.rows;
    ++sink_tiles;
  });
  const trace::TraceSnapshot d = trace::snapshot().since(before);

  const Expected e = expect_fused(pa, 0, shape.m, 0, shape.n);
  EXPECT_EQ(d.counters.kernel_calls, e.kernel_calls);
  EXPECT_EQ(d.counters.kernel_words, e.kernel_words);
  EXPECT_EQ(d.counters.slivers_reused, e.slivers_reused);
  EXPECT_EQ(d.counters.tiles_emitted, e.tiles_emitted);
  EXPECT_EQ(sink_tiles, e.tiles_emitted);
  EXPECT_EQ(sink_rows, e.epilogue_rows);
}

TEST_P(TraceCounters, RaggedRangesMatchAnalyticBlocking) {
  const auto [arch, shape] = GetParam();
  if (shape.m < 8 || shape.n < 8) GTEST_SKIP() << "range too small";
  const BitMatrix g = random_matrix(shape.m + shape.n, shape.samples, 3);
  const GemmConfig cfg = small_blocking(arch);
  const GemmPlan plan = gemm_plan_for(g.view(), cfg);
  const PackedBitMatrix p(g.view(), plan, PackSides::kBoth);

  // Off-sliver window: starts and ends cross register-tile boundaries.
  const std::size_t a_begin = 3, a_end = shape.m + 1;
  const std::size_t b_begin = 5, b_end = shape.n + 2;

  std::uint64_t sink_rows = 0;
  const trace::TraceSnapshot t0 = trace::snapshot();
  gemm_count_fused(p, a_begin, a_end, p, b_begin, b_end,
                   [&](const CountTile& t) { sink_rows += t.rows; });
  const trace::TraceSnapshot d = trace::snapshot().since(t0);
  const Expected e = expect_fused(p, a_begin, a_end, b_begin, b_end);
  EXPECT_EQ(d.counters.kernel_calls, e.kernel_calls);
  EXPECT_EQ(d.counters.kernel_words, e.kernel_words);
  EXPECT_EQ(d.counters.slivers_reused, e.slivers_reused);
  EXPECT_EQ(d.counters.tiles_emitted, e.tiles_emitted);
  EXPECT_EQ(sink_rows, e.epilogue_rows);
}

TEST_P(TraceCounters, SyrkMatchesAnalyticTriangularWalk) {
  const auto [arch, shape] = GetParam();
  const BitMatrix g = random_matrix(shape.m + shape.n, shape.samples, 13);
  const GemmConfig cfg = small_blocking(arch);
  const GemmPlan plan = gemm_plan_for(g.view(), cfg);
  const PackedBitMatrix p(g.view(), plan, PackSides::kBoth);
  ASSERT_FALSE(p.hybrid_dispatch());  // dense panel: no list kernels

  // The whole triangle and an off-sliver window.
  for (const auto& [r0, r1] : {std::pair<std::size_t, std::size_t>{0, g.snps()},
                               {3, g.snps() - 2}}) {
    const Expected e = expect_fused_lower(p, r0, r1);
    std::uint64_t sink_rows = 0;
    std::uint64_t sink_tiles = 0;
    const trace::TraceSnapshot before = trace::snapshot();
    syrk_count_fused(p, r0, r1, [&](const CountTile& t) {
      sink_rows += t.rows;
      ++sink_tiles;
    });
    const trace::TraceSnapshot d = trace::snapshot().since(before);
    EXPECT_EQ(d.counters.kernel_calls, e.kernel_calls);
    EXPECT_EQ(d.counters.kernel_words, e.kernel_words);
    EXPECT_EQ(d.counters.slivers_reused, e.slivers_reused);
    EXPECT_EQ(d.counters.tiles_emitted, e.tiles_emitted);
    EXPECT_EQ(sink_tiles, e.tiles_emitted);
    EXPECT_EQ(sink_rows, e.epilogue_rows);

    // A team changes only the tile granularity: the chunks compose the same
    // register-tile grid, so kernel calls and words are unchanged.
    for (const unsigned team : {2u, 4u}) {
      const trace::TraceSnapshot t0 = trace::snapshot();
      syrk_count_fused(p, r0, r1, [](const CountTile&) {}, team);
      const trace::TraceSnapshot dt = trace::snapshot().since(t0);
      EXPECT_EQ(dt.counters.kernel_calls, e.kernel_calls) << "team=" << team;
      EXPECT_EQ(dt.counters.kernel_words, e.kernel_words) << "team=" << team;
    }
  }
}

// Analytic mirror of the ω scan's band fill at a team of one, for a region
// whose SNPs are all polymorphic (ranks are SNP indices). Each grid point
// covers the window of the largest half-width: the band restarts at the
// window start when that start has passed every filled row, then 64-row
// slabs are filled until the window end is covered. A slab is one SYRK
// diagonal block plus one GEMM strip over the W - 1 rows before it,
// clipped at the window start, where W = min(n, 2 * max_half).
std::uint64_t expect_band_fill_words(const PackedBitMatrix& p,
                                     const std::vector<double>& positions,
                                     std::size_t grid_points,
                                     std::size_t max_half) {
  constexpr std::size_t kSlab = 64;
  const std::size_t n = positions.size();
  const std::size_t width = std::min(n, 2 * max_half);
  std::uint64_t words = 0;
  std::size_t done = 0;
  for (std::size_t gp = 0; gp < grid_points; ++gp) {
    const double x = (static_cast<double>(gp) + 0.5) /
                     static_cast<double>(grid_points);
    const auto center = static_cast<std::size_t>(
        std::lower_bound(positions.begin(), positions.end(), x) -
        positions.begin());
    const std::size_t lo = center > max_half ? center - max_half : 0;
    const std::size_t hi = std::min(n, center + max_half);
    if (hi - lo < 4) continue;
    if (lo >= done) done = lo;
    while (done < hi) {
      const std::size_t end = std::min(done + kSlab, n);
      words += expect_fused_lower(p, done, end).kernel_words;
      const std::size_t strip =
          std::max(lo, done + 1 > width ? done + 1 - width : 0);
      if (strip < done) {
        words += expect_fused(p, done, end, strip, done).kernel_words;
      }
      done = end;
    }
  }
  return words;
}

// Each band pair is computed once, so the scan's kernel work depends on the
// band width alone: searched candidates no wider than the main window add
// none. Two grids: dense (windows overlap, the band slides) and sparse
// (every grid point restarts the band).
TEST(TraceCounters, OmegaScanComputesEachBandPairOnce) {
  if (!trace::compiled()) GTEST_SKIP() << "built with LDLA_TRACE=OFF";
  const BitMatrix g = random_matrix(500, 200, 21);
  std::vector<double> positions(g.snps());
  for (std::size_t s = 0; s < g.snps(); ++s) {
    positions[s] =
        (static_cast<double>(s) + 0.5) / static_cast<double>(g.snps());
  }
  const PackedBitMatrix p = PackedBitMatrix::pack(g.view(), GemmConfig{});
  ASSERT_FALSE(p.hybrid_dispatch());  // dense panel: no list kernels

  for (const std::size_t grid : {60u, 5u}) {
    SweepScanParams params;
    params.grid_points = grid;
    params.window_snps = 12;
    params.packed = &p;
    const auto scan_words = [&](const std::vector<std::size_t>& candidates) {
      SweepScanParams run = params;
      run.window_candidates = candidates;
      const trace::TraceSnapshot before = trace::snapshot();
      EXPECT_EQ(omega_scan(g, positions, run).size(), grid);
      return trace::snapshot().since(before).counters.kernel_words;
    };
    const std::uint64_t alone = scan_words({});
    EXPECT_EQ(scan_words({4, 8, 12}), alone) << "grid " << grid;
    EXPECT_EQ(alone, expect_band_fill_words(p, positions, grid, 12))
        << "grid " << grid;
  }
}

// Analytic mirror of ld_band_scan's kernel work at a team of one over a
// dense single-plane pack: each 256-row slab [r0, r1) runs the nest over
// columns [max(r0 - W, 0), r1), and exactly the register tiles that meet
// the band reach the micro-kernel — row sliver R against column sliver C
// when R + mr > C (not wholly above the diagonal) and R <= C + nr - 1 + W
// (not wholly beyond the band edge), once per k panel.
std::uint64_t expect_band_scan_words(const PackedBitMatrix& p,
                                     std::size_t bandwidth) {
  constexpr std::size_t kSlab = 256;
  const std::size_t n = p.snps();
  const std::size_t mr = p.plan().mr;
  const std::size_t nr = p.plan().nr;
  std::uint64_t panel_words = 0;
  for (std::size_t panel = 0; panel < p.panels(); ++panel) {
    panel_words += mr * nr * p.panel_kc_padded(panel);
  }
  std::uint64_t words = 0;
  for (std::size_t r0 = 0; r0 < n; r0 += kSlab) {
    const std::size_t r1 = std::min(r0 + kSlab, n);
    const std::size_t c0 = r0 > bandwidth ? r0 - bandwidth : 0;
    for (std::size_t row = r0 / mr * mr; row < r1; row += mr) {
      for (std::size_t col = c0 / nr * nr; col < r1; col += nr) {
        if (row + mr > col && row <= col + nr - 1 + bandwidth) {
          words += panel_words;
        }
      }
    }
  }
  return words;
}

// The band walk computes only the register tiles that meet the band, on
// every kernel and on a cache-tile grid finer than the slabs as well as on
// the default one.
TEST(TraceCounters, BandScanWalksOnlyTheBandsRegisterTiles) {
  if (!trace::compiled()) GTEST_SKIP() << "built with LDLA_TRACE=OFF";
  const BitMatrix g = random_matrix(600, 300, 23);
  for (const KernelArch arch : available_kernels()) {
    for (GemmConfig cfg : {GemmConfig{}, small_blocking(arch)}) {
      cfg.arch = arch;
      cfg.sparse_threshold = 0;
      const PackedBitMatrix p = PackedBitMatrix::pack(g.view(), cfg);
      ASSERT_FALSE(p.hybrid_dispatch());
      for (const std::size_t w : {1u, 9u, 300u}) {
        BandOptions opts;
        opts.gemm = cfg;
        opts.packed = &p;
        const trace::TraceSnapshot before = trace::snapshot();
        ld_band_scan(g, w, [](const LdTile&) {}, opts);
        EXPECT_EQ(trace::snapshot().since(before).counters.kernel_words,
                  expect_band_scan_words(p, w))
            << kernel_arch_name(arch) << " mc " << p.plan().mc << " w " << w;
      }
    }
  }
}

std::vector<std::tuple<KernelArch, Shape>> counter_cases() {
  std::vector<std::tuple<KernelArch, Shape>> cases;
  for (const KernelArch arch : available_kernels()) {
    for (const Shape& s : kShapes) cases.emplace_back(arch, s);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Blocking, TraceCounters,
                         ::testing::ValuesIn(counter_cases()));

class TraceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!trace::compiled()) {
      GTEST_SKIP() << "built with LDLA_TRACE=OFF";
    }
  }
};

TEST_F(TraceFixture, PackCountersMatchSliverGeometry) {
  const std::size_t snps = 53, samples = 1100;
  const BitMatrix g = random_matrix(snps, samples, 17);
  const GemmConfig cfg = small_blocking(KernelArch::kScalar);
  const GemmPlan plan = gemm_plan_for(g.view(), cfg);

  const trace::TraceSnapshot before = trace::snapshot();
  const PackedBitMatrix p(g.view(), plan, PackSides::kBoth);
  const trace::TraceSnapshot d = trace::snapshot().since(before);

  // Per packed side, per k panel: ceil(snps/r) slivers of r*kcp words.
  // When mr == nr one copy serves both sides (pack_side runs once).
  std::vector<std::size_t> sides = {plan.mr};
  if (plan.nr != plan.mr) sides.push_back(plan.nr);
  std::uint64_t slivers = 0, bytes = 0;
  for (const std::size_t r : sides) {
    const std::uint64_t side_slivers = (snps + r - 1) / r;
    for (std::size_t panel = 0; panel < p.panels(); ++panel) {
      slivers += side_slivers;
      bytes += side_slivers * r * p.panel_kc_padded(panel) * 8;
    }
  }
  EXPECT_EQ(d.counters.slivers_packed, slivers);
  EXPECT_EQ(d.counters.bytes_packed, bytes);
  EXPECT_EQ(d.counters.slivers_reused, 0u);
}

TEST_F(TraceFixture, FusedEpilogueRowCounterMatchesSink) {
  const std::size_t m = 45, n = 71, samples = 700;
  const BitMatrix a = random_matrix(m, samples, 5);
  const BitMatrix b = random_matrix(n, samples, 6);
  LdOptions opts;
  opts.gemm = small_blocking(KernelArch::kScalar);

  const trace::TraceSnapshot before = trace::snapshot();
  const LdMatrix out = ld_cross_matrix(a, b, opts);
  const trace::TraceSnapshot d = trace::snapshot().since(before);
  ASSERT_EQ(out.rows(), m);

  // ld_cross_matrix converts every row of every fused tile exactly once.
  const GemmPlan plan = gemm_plan_for(a.view(), opts.gemm);
  const PackedBitMatrix p(a.view(), plan, PackSides::kBoth);
  const Expected e = expect_fused(p, 0, m, 0, n);
  EXPECT_EQ(d.counters.epilogue_rows, e.epilogue_rows);
  EXPECT_EQ(d.counters.tiles_emitted, e.tiles_emitted);
}

// Events on one thread must form a laminar family (every pair disjoint or
// nested): RAII spans cannot partially overlap. Returns the number of
// top-level intervals checked.
std::size_t check_laminar(std::vector<trace::TraceEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const trace::TraceEvent& x, const trace::TraceEvent& y) {
              if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
              return x.dur_ns > y.dur_ns;  // enclosing span first
            });
  std::vector<std::uint64_t> stack;  // end times of enclosing spans
  std::size_t top_level = 0;
  for (const trace::TraceEvent& ev : events) {
    const std::uint64_t end = ev.ts_ns + ev.dur_ns;
    while (!stack.empty() && stack.back() <= ev.ts_ns) stack.pop_back();
    if (stack.empty()) {
      ++top_level;
    } else {
      EXPECT_LE(end, stack.back()) << "span partially overlaps its parent";
    }
    stack.push_back(end);
  }
  return top_level;
}

TEST_F(TraceFixture, SessionEventsNestExactlyOnceUnderParallelDrivers) {
  const std::size_t n = 96;
  const BitMatrix g = random_matrix(n, 400, 31);
  LdOptions opts;
  opts.gemm = small_blocking(KernelArch::kScalar);

  trace::start_session("test_trace_nesting");
  ASSERT_TRUE(trace::session_active());
  const trace::TraceSnapshot before = trace::snapshot();
  const LdMatrix out = ld_matrix_parallel(g, opts, 2);
  const trace::TraceSnapshot d = trace::snapshot().since(before);
  const std::vector<trace::TraceEvent> events = trace::session_events();
  trace::cancel_session();
  ASSERT_FALSE(trace::session_active());
  ASSERT_EQ(out.rows(), n);

  ASSERT_FALSE(events.empty());
  std::uint64_t task_run_events = 0;
  std::uint64_t epilogue_events = 0;
  std::uint64_t mirror_events = 0;
  std::vector<std::vector<trace::TraceEvent>> by_tid;
  for (const trace::TraceEvent& ev : events) {
    ASSERT_LT(static_cast<std::size_t>(ev.phase), trace::kPhaseCount);
    if (ev.phase == trace::Phase::kTaskRun) ++task_run_events;
    if (ev.phase == trace::Phase::kEpilogue) ++epilogue_events;
    if (ev.phase == trace::Phase::kMirror) ++mirror_events;
    if (ev.tid >= by_tid.size()) by_tid.resize(ev.tid + 1);
    by_tid[ev.tid].push_back(ev);
  }
  // Exactly one span per pool task — no double emission from the
  // worker/caller/inline execution paths. The transpose runs in each
  // tile's epilogue, so the driver makes no separate mirror pass.
  EXPECT_EQ(task_run_events, d.counters.task_runs);
  EXPECT_GE(task_run_events, 1u);
  EXPECT_GE(epilogue_events, 1u);
  EXPECT_EQ(mirror_events, 0u);
  for (const auto& tid_events : by_tid) {
    check_laminar(tid_events);
  }
}

TEST_F(TraceFixture, StandaloneMirrorEmitsOneEvent) {
  LdMatrix m(70, 70);
  trace::start_session("test_trace_mirror");
  mirror_ld_lower_to_upper(m);
  const std::vector<trace::TraceEvent> events = trace::session_events();
  trace::cancel_session();
  EXPECT_EQ(std::count_if(events.begin(), events.end(),
                          [](const trace::TraceEvent& ev) {
                            return ev.phase == trace::Phase::kMirror;
                          }),
            1);
}

TEST_F(TraceFixture, SessionLifecycleAndSnapshotDiff) {
  // since() must subtract field-wise.
  trace::TraceSnapshot a, b;
  a.counters.kernel_calls = 10;
  a.phase_self_ns[0] = 100;
  b.counters.kernel_calls = 3;
  b.phase_self_ns[0] = 40;
  const trace::TraceSnapshot d = a.since(b);
  EXPECT_EQ(d.counters.kernel_calls, 7u);
  EXPECT_EQ(d.phase_self_ns[0], 60u);

  // Cancelled sessions discard events; a new session starts clean.
  trace::start_session("test_trace_lifecycle");
  {
    const BitMatrix g = random_matrix(8, 130, 2);
    (void)test::count_product(g.view(), g.view(),
                              small_blocking(KernelArch::kScalar));
  }
  EXPECT_FALSE(trace::session_events().empty());
  trace::cancel_session();
  trace::start_session("test_trace_lifecycle_2");
  EXPECT_TRUE(trace::session_events().empty());
  trace::cancel_session();
}

TEST_F(TraceFixture, ReportEmbedsTheRegistryCounters) {
  // The report's "metrics" member is metrics::render_json(): its counters
  // hold every phase counter, valued as trace::snapshot() reads them.
  // Parked workers may still bump ldla_pool_parks_total, so retry until
  // the snapshots on both sides of the write agree.
  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(::setenv("LDLA_TRACE_DIR", dir.c_str(), 1), 0);
  std::string path;
  trace::TraceSnapshot snap;
  for (int attempt = 0; attempt < 100; ++attempt) {
    trace::start_session("test_trace_report");
    {
      const BitMatrix g = random_matrix(8, 130, 3);
      (void)test::count_product(g.view(), g.view(),
                                small_blocking(KernelArch::kScalar));
    }
    snap = trace::snapshot();
    path = trace::stop_session_and_write();
    if (trace::counter_fields(trace::snapshot().counters) ==
        trace::counter_fields(snap.counters)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::unsetenv("LDLA_TRACE_DIR");
  ASSERT_FALSE(path.empty());

  std::stringstream file;
  file << std::ifstream(path).rdbuf();
  const std::string report = file.str();
  std::remove(path.c_str());
  const std::size_t metrics_at =
      report.find("\"metrics\": {\"schema\": \"ldla-metrics-v1\"");
  ASSERT_NE(metrics_at, std::string::npos);
  const std::size_t counters_at = report.find("\"counters\": {", metrics_at);
  const std::size_t gauges_at = report.find("\"gauges\": {", metrics_at);
  ASSERT_LT(counters_at, gauges_at);
  const std::string counters =
      report.substr(counters_at, gauges_at - counters_at);
  const auto value_of = [&counters](const char* name) -> std::uint64_t {
    const std::size_t at = counters.find(std::string("\"") + name + "\": {");
    if (at == std::string::npos) {
      ADD_FAILURE() << name << " missing from the report's metrics.counters";
      return 0;
    }
    const std::size_t v = counters.find("\"value\": ", at);
    return std::strtoull(counters.c_str() + v + 9, nullptr, 10);
  };
  for (const counter_names::FieldSource& f : counter_names::field_sources()) {
    std::uint64_t sum = 0;
    for (const char* name : f.names) sum += value_of(name);
    EXPECT_EQ(sum, snap.counters.*f.field) << f.names.front();
  }
  EXPECT_GT(snap.counters.kernel_words, 0u);
}

TEST(TraceBasics, PhaseNamesAreStable) {
  // scripts/validate_telemetry.py and the BenchJson schema key on these
  // strings.
  EXPECT_STREQ(trace::phase_name(trace::Phase::kPackA), "pack_a");
  EXPECT_STREQ(trace::phase_name(trace::Phase::kPackB), "pack_b");
  EXPECT_STREQ(trace::phase_name(trace::Phase::kKernel), "kernel");
  EXPECT_STREQ(trace::phase_name(trace::Phase::kEpilogue), "epilogue");
  EXPECT_STREQ(trace::phase_name(trace::Phase::kMirror), "mirror");
  EXPECT_STREQ(trace::phase_name(trace::Phase::kIo), "io");
  EXPECT_STREQ(trace::phase_name(trace::Phase::kTaskRun), "task_run");
  EXPECT_STREQ(trace::phase_name(trace::Phase::kTaskWait), "task_wait");
  EXPECT_STREQ(trace::phase_name(trace::Phase::kBarrier), "barrier");
}

TEST_F(TraceFixture, PoolCountersOnInlineAndPooledPaths) {
  // Inline execution (single task, or a pool with zero workers) runs no
  // fork-join barrier and steals nothing; the pooled path pays exactly one
  // barrier per run_tasks call.
  ThreadPool solo(1);  // 0 workers: every run_tasks degrades to inline
  trace::TraceSnapshot before = trace::snapshot();
  solo.run_tasks(5, [](std::size_t) {});
  trace::TraceSnapshot d = trace::snapshot().since(before);
  EXPECT_EQ(d.counters.task_runs, 5u);
  EXPECT_EQ(d.counters.barrier_waits, 0u);
  EXPECT_EQ(d.counters.steals, 0u);

  ThreadPool& pool = global_pool();
  before = trace::snapshot();
  pool.run_tasks(1, [](std::size_t) {});
  d = trace::snapshot().since(before);
  EXPECT_EQ(d.counters.task_runs, 1u);
  EXPECT_EQ(d.counters.barrier_waits, 0u);  // single task is always inline

  before = trace::snapshot();
  pool.run_tasks(4, [](std::size_t) {});
  d = trace::snapshot().since(before);
  EXPECT_EQ(d.counters.task_runs, 4u);
  if (pool.size() == 0) {
    EXPECT_EQ(d.counters.barrier_waits, 0u);
  } else {
    EXPECT_EQ(d.counters.barrier_waits, 1u);
  }
}

TEST_F(TraceFixture, WorkerParksAreCounted) {
  const trace::TraceSnapshot before = trace::snapshot();
  {
    // One spawned worker with nothing to do: its first sweep finds no work
    // and it parks on the idle condition variable.
    ThreadPool pool(2);
    for (int i = 0; i < 2000; ++i) {
      if (trace::snapshot().since(before).counters.parks > 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_GT(trace::snapshot().since(before).counters.parks, 0u);
}

TEST_F(TraceFixture, NestDriversExposeStealCounters) {
  // Chunk stealing must be visible in the trace even on a single-CPU
  // machine: the team's chunk deques are pre-seeded before launch, so when
  // the pool has no workers the caller runs every member in turn — member 0
  // drains its own block, then *steals* every other member's seeded chunks.
  const std::size_t n = 96;
  const BitMatrix g = random_matrix(n, 700, 51);
  const GemmConfig cfg = small_blocking(KernelArch::kScalar);
  const GemmPlan plan = gemm_plan_for(g.view(), cfg);
  const PackedBitMatrix p(g.view(), plan, PackSides::kBoth);

  const trace::TraceSnapshot before = trace::snapshot();
  syrk_count_fused(p, 0, n, [](const CountTile&) {}, 4);
  const trace::TraceSnapshot d = trace::snapshot().since(before);

  // One pool task per team member, every member accounted exactly once.
  EXPECT_EQ(d.counters.task_runs, 4u);
  if (global_pool().size() == 0) {
    // Deterministic single-thread schedule: members 1..3 never pop their
    // own deques before member 0 has swept them.
    EXPECT_GT(d.counters.steals, 0u);
    EXPECT_EQ(d.counters.barrier_waits, 0u);
  } else {
    EXPECT_EQ(d.counters.barrier_waits, 1u);
  }
}

// ---- Streaming io counters --------------------------------------------
//
// The stream walk's counter semantics are deterministic (DESIGN.md §4.7):
//   prefetch_stalls  = acquires that had to materialize on the critical path
//   prefetch_hits    = acquires that found the shard already materialized
//   prefetch_issued  = next-pair shards found cold at prefetch time
//   io_bytes_read    = payload bytes of every materialization
// For a 2-shard store walked (0,0) (1,0) (1,1) with threads=1 and no
// budget, the schedule is fully determined: pair (0,0) stalls on
// shard 0 and prefetches shard 1 in the overlap task; the run_tasks join
// makes every later acquire a hit (the diagonal's shared key is acquired
// once). Totals: 1 stall, 3 hits, 1 issue, io = both payloads.

TEST_F(TraceFixture, StreamCountersMatchTheDeterministicWalk) {
  const BitMatrix g = random_matrix(40, 300, 77);
  GemmConfig cfg = small_blocking(KernelArch::kScalar);
  const std::string path = ::testing::TempDir() + "trace_stream.ldshard";
  write_shard_store(path, g.view(), cfg, /*rows_per_shard=*/20);
  ShardStore store = ShardStore::open(path);
  ASSERT_EQ(store.shards(), 2u);
  const std::uint64_t payload =
      store.shard_bytes(0) + store.shard_bytes(1);

  const trace::TraceSnapshot before = trace::snapshot();
  ld_matrix_stream(store, [](const LdTile&) {}, {});
  const trace::TraceSnapshot d = trace::snapshot().since(before);

  EXPECT_EQ(d.counters.prefetch_stalls, 1u);
  EXPECT_EQ(d.counters.prefetch_hits, 3u);
  EXPECT_EQ(d.counters.prefetch_issued, 1u);
  EXPECT_EQ(d.counters.io_bytes_read, payload);
  EXPECT_GT(d.phase_self_ns[static_cast<std::size_t>(trace::Phase::kIo)], 0u);
}

}  // namespace
}  // namespace ldla
