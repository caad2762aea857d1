#include "omega/sweep_scan.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "core/detail/ld_stats_row.hpp"
#include "core/gemm/syrk.hpp"
#include "omega/omega_stat.hpp"
#include "util/aligned_buffer.hpp"
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

// Band rows filled per step: one SYRK diagonal block plus one GEMM strip
// against the band rows before it.
constexpr std::size_t kSlabRows = 64;

// Read-only state shared by every run of the grid. Monomorphic SNPs have
// undefined r^2 and, at window edges, produce degenerate zero-cross splits
// (omega = inf); they are dropped, as OmegaPlus does, so the band lives in
// the compacted index space of the polymorphic SNPs ("ranks").
struct ScanContext {
  const PackedBitMatrix* packed = nullptr;
  detail::StatTables tables;
  std::vector<std::size_t> poly;    ///< SNP index of each rank
  std::vector<std::size_t> rank;    ///< ranks before each SNP (n + 1 entries)
  std::vector<std::size_t> halves;  ///< window_snps, then the candidates
  std::size_t max_half = 0;
  std::size_t width = 0;  ///< W: the most ranks any window holds

  bool polymorphic(std::size_t s) const { return rank[s + 1] != rank[s]; }
};

ScanContext make_scan_context(const BitMatrix& g,
                              const SweepScanParams& params,
                              std::optional<PackedBitMatrix>& own,
                              unsigned team) {
  ScanContext ctx;
  ctx.packed = &resolve_packed(g.view(), params.gemm, params.packed,
                               PackSides::kBoth, own, team);
  ctx.tables = detail::make_stat_tables(g);
  ctx.rank.resize(g.snps() + 1, 0);
  for (std::size_t s = 0; s < g.snps(); ++s) {
    const std::uint64_t c = ctx.tables.c[s];
    const bool keep = c > 0 && c < g.samples();
    if (keep) ctx.poly.push_back(s);
    ctx.rank[s + 1] = ctx.rank[s] + static_cast<std::size_t>(keep);
  }
  ctx.halves.push_back(params.window_snps);
  for (const std::size_t half : params.window_candidates) {
    if (half != params.window_snps && half >= 2) ctx.halves.push_back(half);
  }
  ctx.max_half = *std::max_element(ctx.halves.begin(), ctx.halves.end());
  // A window spans at most 2·half SNPs; the product saturates at the
  // region, so a half-width near SIZE_MAX means "every polymorphic SNP".
  const std::size_t n_poly = ctx.poly.size();
  ctx.width = ctx.max_half >= (n_poly + 1) / 2 ? n_poly : 2 * ctx.max_half;
  return ctx;
}

// SNP range of the window of half-width `half` around `center`.
Range window_at(std::size_t n, std::size_t center, std::size_t half) {
  // The sum saturates: a half-width near SIZE_MAX means "to the region end".
  return {center > half ? center - half : 0,
          half >= n - center ? n : center + half};
}

// Sliding r^2 band over ranks, W = ctx.width wide: buffer row a - base_
// holds r2(a, a + d) at offset d in [1, W) (offset 0 is never written), so
// the strict upper triangle of the rank run [lo, hi) is the strided view
// {row(lo), W - 1, hi - lo}. Every pair (a, b) with b < done_, b - a < W
// and a at or after the lowest run still to be read is resident, computed
// exactly once. Runs must arrive with lo and hi non-decreasing.
class R2Band {
 public:
  explicit R2Band(const ScanContext& ctx)
      : ctx_(ctx),
        rows_(std::min(ctx.width + kSlabRows, ctx.poly.size())),
        values_(rows_ * ctx.width) {}

  // Make every pair of the rank run [lo, hi) resident (hi - lo <= W).
  void cover(std::size_t lo, std::size_t hi) {
    LDLA_ASSERT(lo >= base_ && hi - lo <= ctx_.width);
    if (lo >= done_) base_ = done_ = lo;  // the grid jumped past the band
    while (done_ < hi) {
      const std::size_t end = std::min(done_ + kSlabRows, ctx_.poly.size());
      if (end - base_ > rows_) {
        // Slide: rows before lo are never read again.
        std::memmove(values_.data(), values_.data() + (lo - base_) * ctx_.width,
                     (done_ - lo) * ctx_.width * sizeof(double));
        base_ = lo;
      }
      LDLA_ASSERT(end - base_ <= rows_);
      fill(lo, done_, end);
      done_ = end;
    }
  }

  R2UpperView view(std::size_t lo, std::size_t hi) const {
    return {row(lo), ctx_.width - 1, hi - lo};
  }

 private:
  const double* row(std::size_t a) const {
    return values_.data() + (a - base_) * ctx_.width;
  }

  // Lowest partner rank of rank b that the band still needs.
  std::size_t first_partner(std::size_t lo, std::size_t b) const {
    return std::max(lo, b + 1 > ctx_.width ? b + 1 - ctx_.width : 0);
  }

  // Pairs (a, b) for ranks b in [b_begin, b_end): the slab against itself
  // (SYRK lower triangle) and against the ranks before it (GEMM strip).
  void fill(std::size_t lo, std::size_t b_begin, std::size_t b_end) {
    const PackedBitMatrix& p = *ctx_.packed;
    const std::size_t r0 = ctx_.poly[b_begin];
    const std::size_t r1 = ctx_.poly[b_end - 1] + 1;
    const CountTileSink sink = [&](const CountTile& t) { store(lo, t); };
    syrk_count_fused(p, r0, r1, sink);
    const std::size_t a_lo = first_partner(lo, b_begin);
    if (a_lo < b_begin) {
      gemm_count_fused(p, r0, r1, p, ctx_.poly[a_lo],
                       ctx_.poly[b_begin - 1] + 1, sink);
    }
  }

  // Rows of `t` are the later SNP of each pair, columns the earlier one.
  // r^2 comes from the same row kernel (and operation order) as every LD
  // driver; each value lands at row a, offset b - a.
  void store(std::size_t lo, const CountTile& t) {
    LDLA_TRACE_SPAN(kEpilogue);
    const std::size_t stride = ctx_.width - 1;
    std::uint64_t rows_converted = 0;
    for (std::size_t i = 0; i < t.rows; ++i) {
      const std::size_t gi = t.row_begin + i;
      if (!ctx_.polymorphic(gi)) continue;
      const std::size_t b = ctx_.rank[gi];
      const std::size_t a_lo = first_partner(lo, b);
      if (a_lo >= b) continue;
      const std::size_t g_lo = std::max(t.col_begin, ctx_.poly[a_lo]);
      const std::size_t g_hi = std::min(t.col_begin + t.cols, gi);
      if (g_lo >= g_hi) continue;
      scratch_.resize(std::max(scratch_.size(), g_hi - g_lo));
      detail::stat_row(LdStatistic::kRSquared, ctx_.tables, gi, ctx_.tables,
                       g_lo, t.row(i) + (g_lo - t.col_begin), g_hi - g_lo,
                       scratch_.data());
      ++rows_converted;
      // (a - base_)·W + (b - a) = (a - base_)·(W - 1) + (b - base_).
      double* column = values_.data() + (b - base_);
      for (std::size_t gj = g_lo; gj < g_hi; ++gj) {
        if (!ctx_.polymorphic(gj)) continue;
        column[(ctx_.rank[gj] - base_) * stride] = scratch_[gj - g_lo];
      }
    }
    LDLA_TRACE_ADD_EPILOGUE_ROWS(rows_converted);
  }

  const ScanContext& ctx_;
  std::size_t rows_;
  AlignedBuffer<double> values_;
  std::vector<double> scratch_;
  std::size_t base_ = 0;
  std::size_t done_ = 0;
};

// The best window at grid point `gp`. Every window is nested in the one of
// the largest half-width, so one cover() makes all of them resident.
std::optional<OmegaPoint> scan_grid_point(const ScanContext& ctx,
                                          const std::vector<double>& positions,
                                          std::size_t grid_points,
                                          std::size_t gp, R2Band& band) {
  const double x =
      (static_cast<double>(gp) + 0.5) / static_cast<double>(grid_points);
  const std::size_t n = positions.size();
  const std::size_t center = static_cast<std::size_t>(
      std::lower_bound(positions.begin(), positions.end(), x) -
      positions.begin());

  const Range outer = window_at(n, center, ctx.max_half);
  if (ctx.rank[outer.end] - ctx.rank[outer.begin] < 4) return std::nullopt;
  band.cover(ctx.rank[outer.begin], ctx.rank[outer.end]);

  const auto eval = [&](std::size_t half) -> std::optional<OmegaPoint> {
    const Range w = window_at(n, center, half);
    const std::size_t lo = ctx.rank[w.begin];
    const std::size_t hi = ctx.rank[w.end];
    if (hi - lo < 4) return std::nullopt;
    const OmegaMax m = omega_max(band.view(lo, hi));
    return OmegaPoint{x, m.omega, w.begin, w.end, m.split};
  };
  // OmegaPlus-style search over window extents: report the maximizing one.
  std::optional<OmegaPoint> best = eval(ctx.halves.front());
  for (std::size_t h = 1; h < ctx.halves.size(); ++h) {
    const auto candidate = eval(ctx.halves[h]);
    if (candidate && (!best || candidate->omega > best->omega)) {
      best = candidate;
    }
  }
  return best;
}

}  // namespace

std::vector<OmegaPoint> omega_scan(const BitMatrix& g,
                                   const std::vector<double>& positions,
                                   const SweepScanParams& params) {
  validate(g, positions, params);
  if (g.snps() < 4) return {};
  const unsigned team =
      params.threads == 0 ? default_thread_count() : params.threads;

  std::optional<PackedBitMatrix> own;
  const ScanContext ctx = make_scan_context(g, params, own, team);
  if (ctx.poly.size() < 4) return {};

  // Contiguous runs of the grid, one band each.
  std::vector<std::optional<OmegaPoint>> slots(params.grid_points);
  run_split(params.grid_points, team, [&](Range run) {
    R2Band band(ctx);
    for (std::size_t gp = run.begin; gp < run.end; ++gp) {
      slots[gp] = scan_grid_point(ctx, positions, params.grid_points, gp, band);
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
