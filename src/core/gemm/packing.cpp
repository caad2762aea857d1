#include "core/gemm/packing.hpp"

#include <algorithm>
#include <cstring>

#include "util/contract.hpp"
#include "util/trace.hpp"

namespace ldla {

std::size_t packed_panel_words(std::size_t rows, std::size_t kc, std::size_t r,
                               std::size_t ku) {
  const std::size_t slivers = (rows + r - 1) / r;
  const std::size_t kc_padded = (kc + ku - 1) / ku * ku;
  return slivers * r * kc_padded;
}

void pack_panel(const BitMatrixView& m, std::size_t row_begin,
                std::size_t rows, std::size_t k_begin, std::size_t kc,
                std::size_t r, std::size_t ku, std::uint64_t* out) {
  LDLA_EXPECT(r > 0 && ku > 0, "register blocking must be positive");
  LDLA_EXPECT(row_begin <= m.n_snps, "row range starts past the matrix");
  LDLA_EXPECT(k_begin <= m.n_words, "k range starts past the row payload");
  LDLA_ASSERT_ALIGNED(out, 8);

  const std::size_t slivers = (rows + r - 1) / r;
  const std::size_t kc_padded = (kc + ku - 1) / ku * ku;
  const std::size_t k_avail = std::min(kc, m.n_words - k_begin);

  // Every pack (PackedBitMatrix::pack_side, sequential or as a team)
  // funnels through here, making this the sliver/byte accounting choke point.
  LDLA_TRACE_ADD_PACK(static_cast<std::uint64_t>(slivers),
                      static_cast<std::uint64_t>(slivers * r * kc_padded * 8));

  for (std::size_t s = 0; s < slivers; ++s) {
    std::uint64_t* dst = out + s * r * kc_padded;
    const std::size_t sliver_row = row_begin + s * r;
    // Layout within a sliver: k-chunk major, then row, then the ku words of
    // that row's chunk — i.e. dst[(kchunk * r + i) * ku + kk].
    for (std::size_t kchunk = 0; kchunk < kc_padded / ku; ++kchunk) {
      for (std::size_t i = 0; i < r; ++i) {
        const std::size_t row = sliver_row + i;
        std::uint64_t* cell = dst + (kchunk * r + i) * ku;
        if (row >= row_begin + rows || row >= m.n_snps) {
          std::memset(cell, 0, ku * sizeof(std::uint64_t));
          continue;
        }
        const std::uint64_t* src = m.row(row) + k_begin + kchunk * ku;
        const std::size_t k0 = kchunk * ku;
        if (k0 + ku <= k_avail) {
          std::memcpy(cell, src, ku * sizeof(std::uint64_t));
        } else {
          const std::size_t have = k_avail > k0 ? k_avail - k0 : 0;
          if (have > 0) std::memcpy(cell, src, have * sizeof(std::uint64_t));
          std::memset(cell + have, 0, (ku - have) * sizeof(std::uint64_t));
        }
      }
    }
  }
}

}  // namespace ldla
