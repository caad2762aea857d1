#include "core/gemm/syrk.hpp"

#include <algorithm>
#include <cstring>

#include "core/gemm/fused_tile.hpp"
#include "core/gemm/kernel.hpp"
#include "util/aligned_buffer.hpp"
#include "util/contract.hpp"
#include "util/trace.hpp"

namespace ldla {

void mirror_lower_to_upper(CountMatrixRef c, std::size_t n) {
  LDLA_EXPECT(c.rows >= n && c.cols >= n, "matrix is too small to mirror");
  LDLA_TRACE_SPAN(kMirror);
  // Block so the source rows (unit stride) and destination rows (the
  // transposed block) both stay cache-resident: 64 x 64 x 4 B = 16 KiB of
  // destination lines, far under L1+L2 even with the source streaming.
  constexpr std::size_t kBlock = 64;
  for (std::size_t jb = 0; jb < n; jb += kBlock) {
    const std::size_t j_end = std::min(jb + kBlock, n);
    // Diagonal block: the triangle within the block.
    for (std::size_t i = jb; i < j_end; ++i) {
      for (std::size_t j = i + 1; j < j_end; ++j) {
        c.at(i, j) = c.at(j, i);
      }
    }
    // Full blocks below the diagonal block mirror to above it.
    for (std::size_t ib = j_end; ib < n; ib += kBlock) {
      const std::size_t i_end = std::min(ib + kBlock, n);
      for (std::size_t i = ib; i < i_end; ++i) {
        for (std::size_t j = jb; j < j_end; ++j) {
          c.at(j, i) = c.at(i, j);
        }
      }
    }
  }
}

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
  if (!triangular_only) mirror_lower_to_upper(c, n);
}

void syrk_count_fused(const PackedBitMatrix& a, std::size_t row_begin,
                      std::size_t row_end, const CountTileSink& sink) {
  LDLA_EXPECT(row_begin <= row_end && row_end <= a.snps(),
              "row range out of range");
  LDLA_EXPECT(sink != nullptr, "fused driver needs a tile sink");
  if (row_begin == row_end) return;
  LDLA_EXPECT(a.has_a_side() && a.has_b_side(),
              "symmetric driver needs both operand sides packed");

  const GemmPlan& plan = a.plan();
  const KernelInfo& kern = kernel_for_plan(plan);
  const std::size_t mr = plan.mr;
  const std::size_t nr = plan.nr;
  const std::size_t mc = plan.mc;
  const std::size_t nc = plan.nc;

  const std::size_t ic0 = row_begin / mr * mr;
  const std::size_t jc0 = row_begin / nr * nr;
  const std::size_t i_pad_end = (row_end + mr - 1) / mr * mr;
  const std::size_t j_pad_end = (row_end + nr - 1) / nr * nr;

  // Tile-local count scratch (see gemm_count_fused). Zeroing the used
  // window also makes skipped above-diagonal register tiles read as
  // deterministic zeros.
  const std::size_t scratch_ld = std::min(nc, j_pad_end - jc0);
  AlignedBuffer<std::uint32_t> scratch(std::min(mc, i_pad_end - ic0) *
                                       scratch_ld);

  for (std::size_t jc = jc0; jc < row_end; jc += nc) {
    const std::size_t jc_end = std::min(jc + nc, j_pad_end);

    // Only row blocks that intersect the lower triangle of this column
    // panel: global rows >= jc, snapped down to an mc boundary (the
    // per-tile skip inside the tile body handles the slack exactly).
    std::size_t ic_start = ic0;
    if (jc > ic0) ic_start = ic0 + (jc - ic0) / mc * mc;
    for (std::size_t ic = ic_start; ic < row_end; ic += mc) {
      const std::size_t ic_end = std::min(ic + mc, i_pad_end);
      detail::fused_syrk_tile(a, kern, mr, nr, ic, ic_end, jc, jc_end,
                              row_begin, row_end, scratch.data(), scratch_ld,
                              sink);
    }
  }
}

void syrk_count(const BitMatrixView& a, CountMatrixRef c,
                const GemmConfig& cfg, bool triangular_only) {
  const std::size_t n = a.n_snps;
  LDLA_EXPECT(c.rows >= n && c.cols >= n, "output matrix is too small");
  if (n == 0) return;
  const PackedBitMatrix pa(a, resolve_plan(cfg, a.n_words), PackSides::kBoth);
  syrk_count_packed(pa, 0, n, c, triangular_only);
}

}  // namespace ldla
