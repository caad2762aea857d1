// Internal: the cache-blocked lower-to-upper mirror shared by the count
// (uint32) and LD (double) matrices.
#pragma once

#include <algorithm>
#include <cstddef>

#include "util/trace.hpp"

namespace ldla::detail {

/// Copy the strict lower triangle of the leading n x n block of the
/// row-major matrix at `data` (leading dimension `ld`) onto the upper
/// triangle. Blocked so the source rows (unit stride) and the transposed
/// destination block both stay cache-resident: 64 x 64 destination lines
/// are 16 KiB of uint32 or 32 KiB of double, under L1+L2 even with the
/// source streaming.
template <typename T>
void mirror_lower_blocked(T* data, std::size_t ld, std::size_t n) {
  LDLA_TRACE_SPAN(kMirror);
  constexpr std::size_t kBlock = 64;
  for (std::size_t jb = 0; jb < n; jb += kBlock) {
    const std::size_t j_end = std::min(jb + kBlock, n);
    // Diagonal block: the triangle within the block.
    for (std::size_t i = jb; i < j_end; ++i) {
      for (std::size_t j = i + 1; j < j_end; ++j) {
        data[i * ld + j] = data[j * ld + i];
      }
    }
    // Full blocks below the diagonal block mirror to above it.
    for (std::size_t ib = j_end; ib < n; ib += kBlock) {
      const std::size_t i_end = std::min(ib + kBlock, n);
      for (std::size_t i = ib; i < i_end; ++i) {
        for (std::size_t j = jb; j < j_end; ++j) {
          data[j * ld + i] = data[i * ld + j];
        }
      }
    }
  }
}

}  // namespace ldla::detail
