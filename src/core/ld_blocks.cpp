#include "core/ld_blocks.hpp"

#include <cmath>

#include "core/band.hpp"
#include "util/contract.hpp"

namespace ldla {

std::vector<LdBlock> find_ld_blocks(const BitMatrix& g,
                                    const LdBlockParams& params) {
  LDLA_EXPECT(params.threshold >= 0.0 && params.threshold <= 1.0,
              "threshold must lie in [0, 1]");
  LDLA_EXPECT(params.max_span > 0, "max span must be positive");
  std::vector<LdBlock> blocks;
  const std::size_t n = g.snps();
  if (n == 0) return blocks;

  // Collect the banded r^2 values: band[i * max_span + (d-1)] = r^2 of
  // (i, i-d) for 1 <= d <= min(i, max_span).
  const std::size_t span = params.max_span;
  std::vector<double> band(n * span, 0.0);
  BandOptions opts;
  opts.gemm = params.gemm;
  ld_band_scan(g, span, [&](const LdTile& tile) {
    for (std::size_t i = 0; i < tile.rows; ++i) {
      const std::size_t gi = tile.row_begin + i;
      for (std::size_t j = 0; j < tile.cols; ++j) {
        const std::size_t d = gi - (tile.col_begin + j);
        if (d == 0) continue;  // self-pairs excluded
        const double v = tile.at(i, j);
        band[gi * span + (d - 1)] = std::isfinite(v) ? v : 0.0;
      }
    }
  }, opts);

  auto r2_at = [&](std::size_t i, std::size_t j) {
    // i > j, i - j <= span
    return band[i * span + (i - j - 1)];
  };

  // Greedy extension.
  std::size_t begin = 0;
  double pair_sum = 0.0;   // sum of r^2 over pairs inside the current block
  std::size_t pairs = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    bool extend = false;
    double link_sum = 0.0;
    std::size_t link_count = 0;
    if (i < n) {
      for (std::size_t j = begin; j < i; ++j) {
        if (i - j > span) continue;
        link_sum += r2_at(i, j);
        ++link_count;
      }
      extend = link_count > 0 &&
               link_sum / static_cast<double>(link_count) >= params.threshold;
    }
    if (extend) {
      pair_sum += link_sum;
      pairs += link_count;
    } else {
      blocks.push_back(
          {begin, i,
           pairs > 0 ? pair_sum / static_cast<double>(pairs) : 0.0});
      begin = i;
      pair_sum = 0.0;
      pairs = 0;
    }
  }
  return blocks;
}

}  // namespace ldla
