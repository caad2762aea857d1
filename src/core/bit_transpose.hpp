// Bit-matrix transposition: converts between SNP-major and sample-major
// packed layouts in 64x64 blocks, so sample-major inputs (ms files store
// one haplotype per line) can be packed line-at-a-time and flipped
// wholesale instead of bit-by-bit, and the sparse list kernels get the
// sample-major copy they gather against (core/gemm/packed_bit_matrix.hpp).
//
// Two cache-tiled routines share one walk: transpose_bits_into writes the
// whole transpose in words, transpose_groups_into only the kept 8-row
// groups as bytes (the pack's compact transpose). The walk covers
// 512-sample column groups: each 64-SNP row block is read as one 64-byte
// line per row and feeds eight 64x64 block transposes, while the group's
// 512 output rows fill their lines across the row blocks. The block
// kernel is the AVX-512 one when the CPU has it (dispatched at run time,
// compiled in core/popcount_avx512.cpp) and the portable scalar
// transpose_64x64 otherwise; both produce the same bits.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "core/bit_matrix.hpp"

namespace ldla {

/// In-place transpose of a 64x64 bit block (rows[i] bit j  <->  rows[j]
/// bit i). Portable scalar code: the fallback block kernel and the oracle
/// the vector kernel is tested against.
void transpose_64x64(std::array<std::uint64_t, 64>& block);

/// A 64x64 block kernel: reads src[i * src_stride] for i < 64 and writes
/// the transposed block to dst[i * dst_stride] for i < 64.
using BlockTransposeFn = void (*)(const std::uint64_t* src,
                                  std::size_t src_stride, std::uint64_t* dst,
                                  std::size_t dst_stride);

/// The vector block kernel when this CPU runs it, else null.
[[nodiscard]] BlockTransposeFn vector_block_transpose();

/// Writes the transpose of `m` into `dst`: sample s becomes the row at
/// dst + s * dst_stride, and words [0, ceil(m.n_snps / 64)) of each of the
/// m.n_samples rows are written (bits past n_snps are zero; nothing else
/// is touched). `threads` > 1 splits the output sample rows across a
/// global_pool() team; the bytes written do not depend on it.
void transpose_bits_into(const BitMatrixView& m, std::uint64_t* dst,
                         std::size_t dst_stride, unsigned threads = 1);

/// Writes the compact transpose of `m`: for every 8-row group g (of
/// ceil(m.n_snps / 8)) whose group_slot[g] is not kNoSlot, sample s's bits
/// of rows [8g, 8g + 8) become the byte dst[s * row_bytes + group_slot[g]]
/// (bit b = row 8g + b, zero past n_snps). Row blocks without a kept group
/// are never read, and nothing but the kept bytes is written. `threads`
/// splits the sample rows as transpose_bits_into does.
void transpose_groups_into(const BitMatrixView& m,
                           const std::uint32_t* group_slot, std::uint8_t* dst,
                           std::size_t row_bytes, unsigned threads = 1);

/// Full matrix transpose: result has one row per input *column*.
/// m.snps() rows x m.samples() bits  ->  m.samples() rows x m.snps() bits.
BitMatrix transpose_bits(const BitMatrix& m);

}  // namespace ldla
