// Internal: the cache-blocked lower-to-upper mirror shared by the count
// (uint32) and LD (double) matrices.
#pragma once

#include <algorithm>
#include <cstddef>

#include "util/trace.hpp"

namespace ldla::detail {

/// Copy the strictly-lower entries (j < i) of rows [r0, r1) x columns
/// [c0, c1) of the row-major matrix at `data` (leading dimension `ld`) onto
/// their transposes (j, i). Blocked so the source block and the transposed
/// destination block both stay cache-resident (64 x 64 is 16 KiB of uint32
/// or 32 KiB of double); each destination row segment is written with unit
/// stride, which measured faster than unit-stride reads on the dense LD
/// matrix.
template <typename T>
void mirror_lower_window(T* data, std::size_t ld, std::size_t r0,
                         std::size_t r1, std::size_t c0, std::size_t c1) {
  constexpr std::size_t kBlock = 64;
  for (std::size_t jb = c0; jb < c1; jb += kBlock) {
    const std::size_t j_end = std::min(jb + kBlock, c1);
    // Row blocks wholly above this column block hold no lower entry.
    std::size_t ib = r0;
    if (jb > r0) ib += (jb - r0) / kBlock * kBlock;
    for (; ib < r1; ib += kBlock) {
      const std::size_t i_end = std::min(ib + kBlock, r1);
      for (std::size_t j = jb; j < j_end; ++j) {
        for (std::size_t i = std::max(ib, j + 1); i < i_end; ++i) {
          data[j * ld + i] = data[i * ld + j];
        }
      }
    }
  }
}

/// Mirror the strict lower triangle of the leading n x n block onto the
/// upper triangle, as one pass.
template <typename T>
void mirror_lower_blocked(T* data, std::size_t ld, std::size_t n) {
  LDLA_TRACE_SPAN(kMirror);
  mirror_lower_window(data, ld, 0, n, 0, n);
}

}  // namespace ldla::detail
