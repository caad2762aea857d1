// Whole count matrices for the count-layer tests, as sinks of the fused
// drivers: pack the operands, run gemm_count_fused (or syrk_count_packed)
// and add every delivered tile into a CountMatrix.
#pragma once

#include <cstddef>

#include "core/gemm/macro.hpp"
#include "core/gemm/syrk.hpp"

namespace ldla::test {

/// Add the product of rows [a_begin, a_end) of `a` and [b_begin, b_end) of
/// `b` into `c` at local indices (i - a_begin, j - b_begin).
inline void add_count_tiles(const PackedBitMatrix& a, std::size_t a_begin,
                            std::size_t a_end, const PackedBitMatrix& b,
                            std::size_t b_begin, std::size_t b_end,
                            CountMatrixRef c, unsigned threads = 1) {
  gemm_count_fused(
      a, a_begin, a_end, b, b_begin, b_end,
      [&](const CountTile& t) {
        for (std::size_t i = 0; i < t.rows; ++i) {
          for (std::size_t j = 0; j < t.cols; ++j) {
            c.at(t.row_begin + i - a_begin, t.col_begin + j - b_begin) +=
                t.row(i)[j];
          }
        }
      },
      threads);
}

/// The a x b count matrix under the plan `cfg` resolves to, each operand
/// packed whole for its side.
inline CountMatrix count_product(const BitMatrixView& a,
                                 const BitMatrixView& b,
                                 const GemmConfig& cfg = {}) {
  CountMatrix c(a.n_snps, b.n_snps);
  if (a.empty() || b.empty()) return c;
  const GemmPlan plan = resolve_plan(cfg, a.n_words);
  const PackedBitMatrix pa(a, plan, PackSides::kA);
  const PackedBitMatrix pb(b, plan, PackSides::kB);
  add_count_tiles(pa, 0, a.n_snps, pb, 0, b.n_snps, c.ref());
  return c;
}

/// The symmetric count matrix of `a` (syrk_count_packed over one pack of
/// both sides).
inline CountMatrix symmetric_product(const BitMatrixView& a,
                                     const GemmConfig& cfg = {}) {
  CountMatrix c(a.n_snps, a.n_snps);
  if (a.empty()) return c;
  const PackedBitMatrix p(a, resolve_plan(cfg, a.n_words), PackSides::kBoth);
  syrk_count_packed(p, 0, a.n_snps, c.ref());
  return c;
}

}  // namespace ldla::test
