// AVX-512 VPOPCNTDQ popcount backends — the hardware vectorized popcount
// the paper's Section V-B calls for — and the AVX-512 64x64 bit-transpose
// block kernel. Compiled with explicit -mavx512* flags and reached only
// behind the CPUID dispatch in popcount.cpp and bit_transpose.cpp.
#include <immintrin.h>

#include "core/detail/popcount_simd.hpp"

namespace ldla::detail {

std::uint64_t avx512_count(const std::uint64_t* p, std::size_t n) {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(_mm512_loadu_si512(p + i)));
    acc1 = _mm512_add_epi64(acc1,
                            _mm512_popcnt_epi64(_mm512_loadu_si512(p + i + 8)));
  }
  std::uint64_t out = static_cast<std::uint64_t>(
      _mm512_reduce_add_epi64(_mm512_add_epi64(acc0, acc1)));
  for (; i < n; ++i) {
    out += static_cast<std::uint64_t>(__builtin_popcountll(p[i]));
  }
  return out;
}

std::uint64_t avx512_count_and(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n) {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i v0 =
        _mm512_and_si512(_mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i));
    const __m512i v1 = _mm512_and_si512(_mm512_loadu_si512(a + i + 8),
                                        _mm512_loadu_si512(b + i + 8));
    acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(v0));
    acc1 = _mm512_add_epi64(acc1, _mm512_popcnt_epi64(v1));
  }
  std::uint64_t out = static_cast<std::uint64_t>(
      _mm512_reduce_add_epi64(_mm512_add_epi64(acc0, acc1)));
  for (; i < n; ++i) {
    out += static_cast<std::uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return out;
}

std::uint64_t avx512_count_and3(const std::uint64_t* a, const std::uint64_t* b,
                                const std::uint64_t* m, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_and_si512(
        _mm512_and_si512(_mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i)),
        _mm512_loadu_si512(m + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  std::uint64_t out = static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) {
    out += static_cast<std::uint64_t>(
        __builtin_popcountll(a[i] & b[i] & m[i]));
  }
  return out;
}

}  // namespace ldla::detail

namespace ldla::detail {
namespace {

// Bitwise select: mask ? b : a (ternary-logic truth table 0xD8).
inline __m512i select_bits(__m512i a, __m512i b, __m512i mask) {
  return _mm512_ternarylogic_epi64(a, b, mask, 0xD8);
}

// One recursive-swap step of transpose_64x64 between words held in two
// registers: word pairs (k, k+J) sit in the same lane of `a` and `b`.
// The scalar t = ((a >> J) ^ b) & m; b ^= t; a ^= t << J is two selects.
template <int J>
inline void swap_across(__m512i& a, __m512i& b, __m512i m, __m512i m_hi) {
  const __m512i a_down = _mm512_srli_epi64(a, J);
  a = select_bits(a, _mm512_slli_epi64(b, J), m_hi);
  b = select_bits(b, a_down, m);
}

// The same step for word pairs J lanes apart inside one register: `p` is
// the register with each lane swapped for its partner, `lo` marks the
// lanes holding the lower word of a pair, and `sel` holds m << J on those
// lanes and m on the others.
template <int J>
inline __m512i swap_within(__m512i r, __m512i p, __mmask8 lo, __m512i sel) {
  const __m512i q = _mm512_mask_slli_epi64(_mm512_srli_epi64(p, J), lo, p, J);
  return select_bits(r, q, sel);
}

inline __m512i broadcast(std::uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

}  // namespace

void avx512_transpose_64x64(const std::uint64_t* src, std::size_t src_stride,
                            std::uint64_t* dst, std::size_t dst_stride) {
  // r[g] lane l holds word 8g + l, loaded straight from the 64 source
  // rows. Steps J = 32, 16, 8 pair whole registers; J = 4, 2, 1 pair lanes
  // within each register. The steps commute (each swaps one row-index bit
  // with one column-index bit), so this is exactly transpose_64x64.
  __m512i r[8];
  for (std::size_t g = 0; g < 8; ++g) {
    const std::uint64_t* p = src + 8 * g * src_stride;
    const auto at = [&](std::size_t l) {
      return static_cast<long long>(p[l * src_stride]);
    };
    r[g] = _mm512_set_epi64(at(7), at(6), at(5), at(4), at(3), at(2), at(1),
                            at(0));
  }

  const __m512i m32 = broadcast(0x00000000ffffffffull);
  const __m512i m16 = broadcast(0x0000ffff0000ffffull);
  const __m512i m8 = broadcast(0x00ff00ff00ff00ffull);
  for (std::size_t g = 0; g < 8; ++g) {
    if ((g & 4) == 0) {
      swap_across<32>(r[g], r[g + 4], m32, _mm512_slli_epi64(m32, 32));
    }
  }
  for (std::size_t g = 0; g < 8; ++g) {
    if ((g & 2) == 0) {
      swap_across<16>(r[g], r[g + 2], m16, _mm512_slli_epi64(m16, 16));
    }
  }
  for (std::size_t g = 0; g < 8; ++g) {
    if ((g & 1) == 0) {
      swap_across<8>(r[g], r[g + 1], m8, _mm512_slli_epi64(m8, 8));
    }
  }

  const __m512i m4 = broadcast(0x0f0f0f0f0f0f0f0full);
  const __m512i m2 = broadcast(0x3333333333333333ull);
  const __m512i m1 = broadcast(0x5555555555555555ull);
  const __m512i sel4 =
      _mm512_mask_blend_epi64(0x0F, m4, _mm512_slli_epi64(m4, 4));
  const __m512i sel2 =
      _mm512_mask_blend_epi64(0x33, m2, _mm512_slli_epi64(m2, 2));
  const __m512i sel1 =
      _mm512_mask_blend_epi64(0x55, m1, _mm512_slli_epi64(m1, 1));
  for (__m512i& v : r) {
    v = swap_within<4>(v, _mm512_shuffle_i64x2(v, v, 0x4E), 0x0F, sel4);
    v = swap_within<2>(v, _mm512_shuffle_i64x2(v, v, 0xB1), 0x33, sel2);
    v = swap_within<1>(v, _mm512_shuffle_epi32(v, _MM_PERM_BADC), 0x55, sel1);
  }

  // Scatter stores measured slower than spilling the block and storing
  // the words one by one.
  alignas(64) std::uint64_t block[64];
  for (std::size_t g = 0; g < 8; ++g) {
    _mm512_store_si512(block + 8 * g, r[g]);
  }
  for (std::size_t i = 0; i < 64; ++i) dst[i * dst_stride] = block[i];
}

}  // namespace ldla::detail
