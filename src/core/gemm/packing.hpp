// Packing of bit-matrix panels into the micro-kernel's interleaved layout.
//
// The GotoBLAS approach copies each cache block of A and B into contiguous
// memory ordered exactly as the micro-kernel consumes it, so the innermost
// loop performs only unit-stride, aligned loads. For the popcount semiring,
// rows beyond the matrix edge and words beyond kc are padded with zeros,
// which are identity elements — edge handling costs nothing in the kernel.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/bit_matrix.hpp"
#include "util/contract.hpp"

namespace ldla {

/// Words required to pack `rows` rows of `kc` words with register blocking
/// `r` and k-unroll `ku` (rows rounds up to a multiple of r, kc to ku).
std::size_t packed_panel_words(std::size_t rows, std::size_t kc, std::size_t r,
                               std::size_t ku);

/// Slot-table entry of a sliver that holds no dense words (every real row
/// of it is an index list; see PackedBitMatrix).
inline constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

/// Non-owning view of a packed operand panel: `slivers` groups of `r` rows,
/// each `kc_padded` words long in the interleaved layout the micro-kernels
/// consume (see kernel.hpp). Sliver s sits in slot `slot[s]` of `data`, or
/// in slot s when there is no slot table; a sliver whose slot is kNoSlot
/// has no dense words. Sliver lookup is bounds-checked in debug / checked
/// builds, so macro-kernel indexing bugs (and reads of a sliver stored
/// only as lists) fault loudly instead of reading past the packing buffer.
struct PackedPanelView {
  const std::uint64_t* data = nullptr;
  std::size_t slivers = 0;    ///< number of r-row groups
  std::size_t r = 0;          ///< register blocking (rows per sliver)
  std::size_t kc_padded = 0;  ///< words per row, padded to the k-unroll
  const std::uint32_t* slot = nullptr;  ///< per-sliver slot (null: identity)

  [[nodiscard]] const std::uint64_t* sliver(std::size_t s) const {
    LDLA_BOUNDS_CHECK(s < slivers, "packed panel sliver out of range");
    const std::size_t at = slot == nullptr ? s : slot[s];
    LDLA_BOUNDS_CHECK(at != kNoSlot, "an all-sparse sliver has no dense words");
    return data + at * r * kc_padded;
  }
};

/// Pack rows [row_begin, row_begin+rows) and words [k_begin, k_begin+kc)
/// of `m` into `out` using the layout documented in kernel.hpp:
///
///   out[((kchunk * slivers + s) * r + i) * ku + kk]  -- wait, see .cpp; the
/// layout is sliver-major: for each sliver of r rows, all kc words of that
/// sliver are contiguous, grouped ku words at a time per row.
///
/// Rows past the end of the matrix and words past the row payload are
/// zero-filled. `out` must hold packed_panel_words(...) words.
void pack_panel(const BitMatrixView& m, std::size_t row_begin,
                std::size_t rows, std::size_t k_begin, std::size_t kc,
                std::size_t r, std::size_t ku, std::uint64_t* out);

}  // namespace ldla
