#include "core/gemm/syrk.hpp"

#include <algorithm>
#include <cstring>

#include "core/detail/mirror.hpp"
#include "util/contract.hpp"

namespace ldla {

void syrk_count_packed(const PackedBitMatrix& a, std::size_t row_begin,
                       std::size_t row_end, CountMatrixRef c,
                       bool triangular_only) {
  LDLA_EXPECT(row_begin <= row_end && row_end <= a.snps(),
              "row range out of range");
  const std::size_t n = row_end - row_begin;
  if (n == 0) return;
  LDLA_EXPECT(c.rows >= n && c.cols >= n, "output matrix is too small");
  LDLA_EXPECT(c.ld >= c.cols, "output leading dimension too small");

  // Each lower-triangle element lives in exactly one tile: copy the
  // canonical (j <= i) part of every tile, then mirror if asked.
  syrk_count_fused(a, row_begin, row_end, [&](const CountTile& t) {
    for (std::size_t i = 0; i < t.rows; ++i) {
      const std::size_t gi = t.row_begin + i;
      if (gi < t.col_begin) continue;
      const std::size_t width = std::min(t.col_begin + t.cols, gi + 1) -
                                t.col_begin;
      std::memcpy(&c.at(gi - row_begin, t.col_begin - row_begin), t.row(i),
                  width * sizeof(std::uint32_t));
    }
  });
  if (!triangular_only) detail::mirror_lower_blocked(c.data, c.ld, n);
}

}  // namespace ldla
