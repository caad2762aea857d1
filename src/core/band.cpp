#include "core/band.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/detail/ld_stats_row.hpp"
#include "core/gemm/macro.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

namespace ldla {

namespace {

/// Rows per stripe: each slab multiplies against the column range its band
/// intersects.
constexpr std::size_t kSlabRows = 256;

}  // namespace

void ld_band_scan(const LdOperand& g, std::size_t bandwidth,
                  const LdTileVisitor& visit, const BandOptions& opts) {
  const std::size_t n = g.snps();
  if (n == 0) return;
  LDLA_EXPECT(bandwidth > 0, "bandwidth must be positive");

  const std::size_t max_rows = std::min(kSlabRows, n);
  // A slab of rows [r0, r1) needs columns [max(0, r0 - W), r1). The sum
  // saturates: a bandwidth near SIZE_MAX means "every column".
  const std::size_t max_cols =
      bandwidth >= n - max_rows ? n : max_rows + bandwidth;

  const unsigned team =
      opts.threads == 0 ? default_thread_count() : opts.threads;
  detail::visit_rows(g, g, opts.stat, [&](auto unit, const auto& row) {
    std::optional<PackedBitMatrix> own;
    const PackedBitMatrix& packed = resolve_packed(
        g.rows().view(), opts.gemm, opts.packed, PackSides::kBoth, own, team);

    AlignedBuffer<double> values(max_rows * max_cols);
    for (std::size_t r0 = 0; r0 < n; r0 += kSlabRows) {
      const std::size_t rows = std::min(kSlabRows, n - r0);
      const std::size_t col_begin = r0 > bandwidth ? r0 - bandwidth : 0;
      const std::size_t col_end = r0 + rows;
      const std::size_t cols = col_end - col_begin;
      LDLA_ASSERT(rows <= max_rows && cols <= max_cols);
      // Row r0+i pairs with global columns [col_begin, col_end); the whole
      // stripe is converted (values outside the band are still valid LD
      // values; consumers filter by index).
      gemm_count_fused(
          packed, unit * r0, unit * (r0 + rows), packed, unit * col_begin,
          unit * col_end,
          [&](const CountTile& t) {
            detail::tile_stats(detail::snp_tile<unit>(t),
                               detail::TilePart::kFull,
                               {values.data(), cols, r0, col_begin}, row);
          },
          team);
      visit(LdTile{r0, col_begin, rows, cols, values.data(), cols});
    }
  });
}

namespace {

DecayProfile finalize(std::vector<double> bin_upper, std::vector<double> sum,
                      std::vector<std::uint64_t> count) {
  DecayProfile out;
  out.bin_upper = std::move(bin_upper);
  out.count = std::move(count);
  out.mean.resize(sum.size(), 0.0);
  for (std::size_t b = 0; b < sum.size(); ++b) {
    if (out.count[b] > 0) {
      out.mean[b] = sum[b] / static_cast<double>(out.count[b]);
    }
  }
  return out;
}

}  // namespace

DecayProfile ld_decay_profile(const BitMatrix& g, std::size_t max_distance,
                              std::size_t bins, const BandOptions& opts) {
  LDLA_EXPECT(max_distance > 0, "max distance must be positive");
  LDLA_EXPECT(bins > 0, "need at least one bin");

  const double bin_width =
      static_cast<double>(max_distance) / static_cast<double>(bins);
  std::vector<double> bin_upper(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    bin_upper[b] = bin_width * static_cast<double>(b + 1);
  }
  std::vector<double> sum(bins, 0.0);
  std::vector<std::uint64_t> count(bins, 0);

  ld_band_scan(
      g, max_distance,
      [&](const LdTile& tile) {
        for (std::size_t i = 0; i < tile.rows; ++i) {
          const std::size_t gi = tile.row_begin + i;
          for (std::size_t j = 0; j < tile.cols; ++j) {
            const std::size_t gj = tile.col_begin + j;
            if (gj >= gi) break;  // canonical j < i only
            const std::size_t dist = gi - gj;
            if (dist > max_distance) continue;
            const double v = tile.at(i, j);
            if (!std::isfinite(v)) continue;
            auto b = static_cast<std::size_t>(
                static_cast<double>(dist - 1) / bin_width);
            b = std::min(b, bins - 1);
            sum[b] += v;
            ++count[b];
          }
        }
      },
      opts);
  return finalize(std::move(bin_upper), std::move(sum), std::move(count));
}

DecayProfile ld_decay_by_position(const BitMatrix& g,
                                  const std::vector<double>& positions,
                                  std::size_t snp_bandwidth, double max_dist,
                                  std::size_t bins, const BandOptions& opts) {
  LDLA_EXPECT(positions.size() == g.snps(), "need one position per SNP");
  LDLA_EXPECT(std::is_sorted(positions.begin(), positions.end()),
              "positions must be sorted");
  LDLA_EXPECT(max_dist > 0.0, "max distance must be positive");
  LDLA_EXPECT(bins > 0, "need at least one bin");

  const double bin_width = max_dist / static_cast<double>(bins);
  std::vector<double> bin_upper(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    bin_upper[b] = bin_width * static_cast<double>(b + 1);
  }
  std::vector<double> sum(bins, 0.0);
  std::vector<std::uint64_t> count(bins, 0);

  ld_band_scan(
      g, snp_bandwidth,
      [&](const LdTile& tile) {
        for (std::size_t i = 0; i < tile.rows; ++i) {
          const std::size_t gi = tile.row_begin + i;
          for (std::size_t j = 0; j < tile.cols; ++j) {
            const std::size_t gj = tile.col_begin + j;
            if (gj >= gi) break;
            const double dist = positions[gi] - positions[gj];
            if (dist > max_dist || dist <= 0.0) continue;
            const double v = tile.at(i, j);
            if (!std::isfinite(v)) continue;
            auto b = static_cast<std::size_t>(dist / bin_width);
            b = std::min(b, bins - 1);
            sum[b] += v;
            ++count[b];
          }
        }
      },
      opts);
  return finalize(std::move(bin_upper), std::move(sum), std::move(count));
}

}  // namespace ldla
