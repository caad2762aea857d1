#include "core/bit_transpose.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "core/detail/popcount_simd.hpp"
#include "core/gemm/packing.hpp"
#include "util/contract.hpp"
#include "util/cpu_info.hpp"
#include "util/thread_pool.hpp"

namespace ldla {

void transpose_64x64(std::array<std::uint64_t, 64>& block) {
  // Recursive quadrant swaps with shrinking masks (Hacker's Delight 7-3
  // adapted to LSB-first bit numbering): swaps bit c of word r with bit r
  // of word c. At step j, element (k, c+j) exchanges with (k+j, c) for
  // every c whose j-bit is clear.
  std::uint64_t m = 0x00000000ffffffffull;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((block[k] >> j) ^ block[k + j]) & m;
      block[k + j] ^= t;
      block[k] ^= t << j;
    }
  }
}

BlockTransposeFn vector_block_transpose() {
#if LDLA_HAVE_AVX512_TU
  // The kernel's TU is built for F + BW + VPOPCNTDQ; require what it was
  // compiled for, as the popcount dispatch does.
  const CpuFeatures& f = cpu_features();
  if (f.avx512f && f.avx512bw && f.avx512vpopcntdq) {
    return &detail::avx512_transpose_64x64;
  }
#endif
  return nullptr;
}

namespace {

// Words per column group: 8 words = 512 samples, so each 64-SNP row block
// is read as exactly one 64-byte line per row.
constexpr std::size_t kGroupWords = 8;

void scalar_block_transpose(const std::uint64_t* src, std::size_t src_stride,
                            std::uint64_t* dst, std::size_t dst_stride) {
  std::array<std::uint64_t, 64> block;
  for (std::size_t i = 0; i < 64; ++i) block[i] = src[i * src_stride];
  transpose_64x64(block);
  for (std::size_t i = 0; i < 64; ++i) dst[i * dst_stride] = block[i];
}

BlockTransposeFn block_kernel() {
  static const BlockTransposeFn fn = [] {
    const BlockTransposeFn v = vector_block_transpose();
    return v != nullptr ? v : &scalar_block_transpose;
  }();
  return fn;
}

// Words ahead of the current row block at which each output row is
// prefetched for writing. Every output line takes eight single-word stores
// from eight consecutive row blocks, so the first store to a line misses;
// without the prefetch those misses reach the head of the store buffer one
// after another and the transpose runs at half its speed.
constexpr std::size_t kStorePrefetchWords = 16;

// The walk both layouts share, over column words [cb_begin, cb_end) of
// `m`, i.e. output sample rows [64 * cb_begin, min(64 * cb_end,
// n_samples)). Row blocks are outer within a column group: the 64 source
// lines of a row block stay in L1 across the group's eight blocks, and
// each of the group's 512 output rows fills its line across the row
// blocks. Each row block `want(rb)` accepts hands the source of its 64x64
// block in word column cb to `block(rb, cb, src, src_stride)`; the last
// row block goes through zero-padded staging.
template <typename Want, typename Block>
void walk_blocks(const BitMatrixView& m, std::size_t cb_begin,
                 std::size_t cb_end, Want&& want, Block&& block) {
  const std::size_t row_blocks = (m.n_snps + 63) / 64;
  std::array<std::uint64_t, 64> in;
  for (std::size_t cb0 = cb_begin; cb0 < cb_end; cb0 += kGroupWords) {
    const std::size_t cb1 = std::min(cb0 + kGroupWords, cb_end);
    for (std::size_t rb = 0; rb < row_blocks; ++rb) {
      if (!want(rb)) continue;
      const std::size_t rows = std::min<std::size_t>(64, m.n_snps - rb * 64);
      const std::uint64_t* lines = m.data + rb * 64 * m.stride_words;
      for (std::size_t cb = cb0; cb < cb1; ++cb) {
        const std::uint64_t* src = lines + cb;
        std::size_t src_stride = m.stride_words;
        if (rows < 64) {
          for (std::size_t i = 0; i < 64; ++i) {
            in[i] = i < rows ? src[i * src_stride] : 0;
          }
          src = in.data();
          src_stride = 1;
        }
        block(rb, cb, src, src_stride);
      }
    }
  }
}

}  // namespace

void transpose_bits_into(const BitMatrixView& m, std::uint64_t* dst,
                         std::size_t dst_stride, unsigned threads) {
  if (m.n_snps == 0 || m.n_words == 0) return;
  LDLA_EXPECT(dst_stride >= (m.n_snps + 63) / 64,
              "transpose destination rows are shorter than the SNP count");
  const BlockTransposeFn kernel = block_kernel();
  const std::size_t row_blocks = (m.n_snps + 63) / 64;
  const std::size_t groups = (m.n_words + kGroupWords - 1) / kGroupWords;
  // Members own disjoint column groups, hence disjoint output rows.
  run_split(groups, threads, [&](Range r) {
    std::array<std::uint64_t, 64> out;
    walk_blocks(
        m, r.begin * kGroupWords, std::min(r.end * kGroupWords, m.n_words),
        [](std::size_t) { return true; },
        [&](std::size_t rb, std::size_t cb, const std::uint64_t* src,
            std::size_t src_stride) {
          std::uint64_t* d = dst + cb * 64 * dst_stride + rb;
          const std::size_t out_rows =
              std::min<std::size_t>(64, m.n_samples - cb * 64);
          if (rb + kStorePrefetchWords < row_blocks) {
            for (std::size_t i = 0; i < out_rows; ++i) {
              __builtin_prefetch(d + i * dst_stride + kStorePrefetchWords, 1);
            }
          }
          if (out_rows == 64) {
            kernel(src, src_stride, d, dst_stride);
          } else {
            kernel(src, src_stride, out.data(), 1);
            for (std::size_t i = 0; i < out_rows; ++i) {
              d[i * dst_stride] = out[i];
            }
          }
        });
  });
}

void transpose_groups_into(const BitMatrixView& m,
                           const std::uint32_t* group_slot, std::uint8_t* dst,
                           std::size_t row_bytes, unsigned threads) {
  if (m.n_snps == 0 || m.n_words == 0 || row_bytes == 0) return;
  LDLA_EXPECT(group_slot != nullptr && dst != nullptr,
              "a compact transpose needs a group table and a destination");
  const BlockTransposeFn kernel = block_kernel();
  const std::size_t n_groups = (m.n_snps + 7) / 8;
  const std::size_t groups = (m.n_words + kGroupWords - 1) / kGroupWords;
  const std::size_t row_blocks = (m.n_snps + 63) / 64;
  run_split(groups, threads, [&](Range r) {
    // The kept groups of the current row block: their slots, where their
    // byte sits in a transposed word, and whether all eight are kept in
    // consecutive slots — then each sample's word is one 8-byte store,
    // prefetched ahead like the full-width layout's.
    std::array<std::uint32_t, 8> slot;
    std::array<unsigned, 8> shift;
    std::size_t kept = 0;
    bool whole = false;
    std::array<std::uint64_t, 64> out;
    walk_blocks(
        m, r.begin * kGroupWords, std::min(r.end * kGroupWords, m.n_words),
        [&](std::size_t rb) {
          kept = 0;
          for (std::size_t g = rb * 8; g < std::min(rb * 8 + 8, n_groups);
               ++g) {
            if (group_slot[g] == kNoSlot) continue;
            shift[kept] = static_cast<unsigned>(8 * (g - rb * 8));
            slot[kept++] = group_slot[g];
          }
          whole = kept == 8 && slot[7] == slot[0] + 7;
          return kept != 0;
        },
        [&](std::size_t rb, std::size_t cb, const std::uint64_t* src,
            std::size_t src_stride) {
          kernel(src, src_stride, out.data(), 1);
          const std::size_t out_rows =
              std::min<std::size_t>(64, m.n_samples - cb * 64);
          std::uint8_t* d = dst + cb * 64 * row_bytes;
          if (!whole) {
            for (std::size_t i = 0; i < out_rows; ++i) {
              for (std::size_t k = 0; k < kept; ++k) {
                d[i * row_bytes + slot[k]] =
                    static_cast<std::uint8_t>(out[i] >> shift[k]);
              }
            }
            return;
          }
          // Byte k of a little-endian word is group k of the row block.
          static_assert(std::endian::native == std::endian::little);
          d += slot[0];
          if (rb + kStorePrefetchWords < row_blocks) {
            for (std::size_t i = 0; i < out_rows; ++i) {
              __builtin_prefetch(d + i * row_bytes + 8 * kStorePrefetchWords,
                                 1);
            }
          }
          for (std::size_t i = 0; i < out_rows; ++i) {
            std::memcpy(d + i * row_bytes, &out[i], 8);
          }
        });
  });
}

BitMatrix transpose_bits(const BitMatrix& m) {
  LDLA_EXPECT(m.snps() < (std::uint64_t{1} << 32),
              "transposing would exceed the 2^32 sample limit");
  BitMatrix out(m.samples(), m.snps());
  if (m.snps() == 0 || m.samples() == 0) return out;
  // Output padding stays clean: bits past snps() come from the zero rows
  // the edge staging supplies, and words past ceil(snps/64) keep the
  // constructor's zeros.
  transpose_bits_into(m.view(), out.row_data(0), out.stride_words());
  return out;
}

}  // namespace ldla
