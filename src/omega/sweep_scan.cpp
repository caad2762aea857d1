#include "omega/sweep_scan.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "core/gemm/syrk.hpp"
#include "omega/omega_stat.hpp"
#include "util/contract.hpp"
#include "util/partition.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace ldla {

namespace {

void validate(const BitMatrix& g, const std::vector<double>& positions,
              const SweepScanParams& params) {
  LDLA_EXPECT(positions.size() == g.snps(), "need one position per SNP");
  LDLA_EXPECT(std::is_sorted(positions.begin(), positions.end()),
              "positions must be sorted");
  LDLA_EXPECT(params.grid_points > 0, "need at least one grid point");
  LDLA_EXPECT(params.window_snps >= 2, "window needs at least 2 SNPs a side");
}

// Shared per-scan state: the packed operand and the per-SNP derived-allele
// counts (they drive both the polymorphism filter and the r^2 inputs).
struct ScanContext {
  const PackedBitMatrix* packed = nullptr;
  std::vector<std::uint64_t> counts;
  std::uint64_t samples = 0;
};

// One window: counts for the whole contiguous window come from slicing the
// persistent pack (no gather, no re-pack), and r^2 entries are produced
// straight from hot count tiles for the polymorphic subset — the window
// CountMatrix is never materialized. Monomorphic SNPs have undefined r^2
// and, at window edges, produce degenerate zero-cross splits (omega = inf);
// they are dropped, as OmegaPlus does, and omega runs on the compacted
// window.
std::optional<OmegaPoint> scan_window(const ScanContext& ctx, double x,
                                      std::size_t center, std::size_t half) {
  const PackedBitMatrix& packed = *ctx.packed;
  const std::size_t n = packed.snps();
  const std::size_t begin = center > half ? center - half : 0;
  // The sum saturates: a half-width near SIZE_MAX means "to the region end".
  const std::size_t end = half >= n - center ? n : center + half;
  if (end - begin < 4) return std::nullopt;

  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> pos(end - begin, kNone);
  std::size_t wk = 0;
  for (std::size_t s = begin; s < end; ++s) {
    if (ctx.counts[s] > 0 && ctx.counts[s] < ctx.samples) pos[s - begin] = wk++;
  }
  if (wk < 4) return std::nullopt;

  LdMatrix r2(wk, wk);
  syrk_count_fused(packed, begin, end, [&](const CountTile& t) {
    LDLA_TRACE_SPAN(kEpilogue);
    for (std::size_t i = 0; i < t.rows; ++i) {
      const std::size_t gi = t.row_begin + i;
      const std::size_t pi = pos[gi - begin];
      if (pi == kNone) continue;
      const std::size_t j_hi = std::min(t.col_begin + t.cols, gi + 1);
      for (std::size_t gj = t.col_begin; gj < j_hi; ++gj) {
        const std::size_t pj = pos[gj - begin];
        if (pj == kNone) continue;
        // r^2 is exactly symmetric in (ci, cj): one evaluation fills both.
        const double v = ld_r_squared(ctx.counts[gi], ctx.counts[gj],
                                      t.row(i)[gj - t.col_begin], ctx.samples);
        r2(pi, pj) = v;
        r2(pj, pi) = v;
      }
    }
    LDLA_TRACE_ADD_EPILOGUE_ROWS(static_cast<std::uint64_t>(t.rows));
  });
  const OmegaMax m = omega_max(r2);
  return OmegaPoint{x, m.omega, begin, end, m.split};
}

std::optional<OmegaPoint> scan_grid_point(const std::vector<double>& positions,
                                          const SweepScanParams& params,
                                          const ScanContext& ctx,
                                          std::size_t gp) {
  const double x = (static_cast<double>(gp) + 0.5) /
                   static_cast<double>(params.grid_points);
  const std::size_t center = static_cast<std::size_t>(
      std::lower_bound(positions.begin(), positions.end(), x) -
      positions.begin());

  std::optional<OmegaPoint> best =
      scan_window(ctx, x, center, params.window_snps);
  // OmegaPlus-style search over window extents: report the maximizing one.
  for (const std::size_t half : params.window_candidates) {
    if (half == params.window_snps || half < 2) continue;
    const auto candidate = scan_window(ctx, x, center, half);
    if (candidate && (!best || candidate->omega > best->omega)) {
      best = candidate;
    }
  }
  return best;
}

ScanContext make_scan_context(const BitMatrix& g,
                              const SweepScanParams& params,
                              std::optional<PackedBitMatrix>& own) {
  ScanContext ctx;
  ctx.packed = &resolve_packed(g.view(), params.gemm, params.packed,
                               PackSides::kBoth, own);
  ctx.samples = g.samples();
  ctx.counts.resize(g.snps());
  for (std::size_t s = 0; s < g.snps(); ++s) {
    ctx.counts[s] = g.derived_count(s);
  }
  return ctx;
}

}  // namespace

std::vector<OmegaPoint> omega_scan(const BitMatrix& g,
                                   const std::vector<double>& positions,
                                   const SweepScanParams& params) {
  validate(g, positions, params);
  std::vector<OmegaPoint> out;
  out.reserve(params.grid_points);
  if (g.snps() < 4) return out;

  std::optional<PackedBitMatrix> own;
  const ScanContext ctx = make_scan_context(g, params, own);
  for (std::size_t gp = 0; gp < params.grid_points; ++gp) {
    if (const auto point = scan_grid_point(positions, params, ctx, gp)) {
      out.push_back(*point);
    }
  }
  return out;
}

std::vector<OmegaPoint> omega_scan_parallel(
    const BitMatrix& g, const std::vector<double>& positions,
    const SweepScanParams& params, unsigned threads) {
  validate(g, positions, params);
  if (g.snps() < 4) return {};
  if (threads == 0) {
    threads = default_thread_count();
  }

  // Pack once, share read-only across workers; grid points are distributed
  // in `threads` contiguous chunks on the process-wide pool.
  std::optional<PackedBitMatrix> own;
  const ScanContext ctx = make_scan_context(g, params, own);

  std::vector<std::optional<OmegaPoint>> slots(params.grid_points);
  const std::vector<Range> ranges = split_uniform(params.grid_points, threads);
  global_pool().run_tasks(ranges.size(), [&](std::size_t t) {
    for (std::size_t gp = ranges[t].begin; gp < ranges[t].end; ++gp) {
      slots[gp] = scan_grid_point(positions, params, ctx, gp);
    }
  });

  std::vector<OmegaPoint> out;
  out.reserve(params.grid_points);
  for (const auto& slot : slots) {
    if (slot) out.push_back(*slot);
  }
  return out;
}

OmegaPoint omega_scan_peak(const std::vector<OmegaPoint>& scan) {
  LDLA_EXPECT(!scan.empty(), "scan produced no points");
  return *std::max_element(scan.begin(), scan.end(),
                           [](const OmegaPoint& a, const OmegaPoint& b) {
                             return a.omega < b.omega;
                           });
}

}  // namespace ldla
