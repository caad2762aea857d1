// AVX2 popcount backends. This TU is compiled with -mavx2 and reached only
// behind the CPUID dispatch in popcount.cpp.
#include <immintrin.h>

#include "core/detail/popcount_simd.hpp"

namespace ldla::detail {
namespace {

__m256i popcount_bytes(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                         _mm256_shuffle_epi8(lookup, hi));
}

__m256i popcount_epi64(__m256i v) {
  return _mm256_sad_epu8(popcount_bytes(v), _mm256_setzero_si256());
}

void csa(__m256i& h, __m256i& l, __m256i a, __m256i b, __m256i c) {
  const __m256i u = _mm256_xor_si256(a, b);
  h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  l = _mm256_xor_si256(u, c);
}

// Harley-Seal carry-save popcount over 256-bit blocks produced by `load(i)`.
template <typename LoadFn>
std::uint64_t harley_seal_blocks(std::size_t blocks, LoadFn load) {
  __m256i total = _mm256_setzero_si256();
  __m256i ones = _mm256_setzero_si256();
  __m256i twos = _mm256_setzero_si256();
  __m256i fours = _mm256_setzero_si256();
  __m256i eights = _mm256_setzero_si256();

  std::size_t i = 0;
  for (; i + 16 <= blocks; i += 16) {
    __m256i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
    csa(twos_a, ones, ones, load(i + 0), load(i + 1));
    csa(twos_b, ones, ones, load(i + 2), load(i + 3));
    csa(fours_a, twos, twos, twos_a, twos_b);
    csa(twos_a, ones, ones, load(i + 4), load(i + 5));
    csa(twos_b, ones, ones, load(i + 6), load(i + 7));
    csa(fours_b, twos, twos, twos_a, twos_b);
    csa(eights_a, fours, fours, fours_a, fours_b);
    csa(twos_a, ones, ones, load(i + 8), load(i + 9));
    csa(twos_b, ones, ones, load(i + 10), load(i + 11));
    csa(fours_a, twos, twos, twos_a, twos_b);
    csa(twos_a, ones, ones, load(i + 12), load(i + 13));
    csa(twos_b, ones, ones, load(i + 14), load(i + 15));
    csa(fours_b, twos, twos, twos_a, twos_b);
    csa(eights_b, fours, fours, fours_a, fours_b);
    csa(sixteens, eights, eights, eights_a, eights_b);
    total = _mm256_add_epi64(total, popcount_epi64(sixteens));
  }
  total = _mm256_slli_epi64(total, 4);
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount_epi64(eights), 3));
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount_epi64(fours), 2));
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount_epi64(twos), 1));
  total = _mm256_add_epi64(total, popcount_epi64(ones));
  for (; i < blocks; ++i) {
    total = _mm256_add_epi64(total, popcount_epi64(load(i)));
  }

  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), total);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

std::uint64_t scalar_tail(const std::uint64_t* p, std::size_t lo,
                          std::size_t hi) {
  std::uint64_t acc = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    acc += static_cast<std::uint64_t>(__builtin_popcountll(p[i]));
  }
  return acc;
}

}  // namespace

std::uint64_t avx2_count(const std::uint64_t* p, std::size_t n) {
  const std::size_t blocks = n / 4;
  const std::uint64_t head = harley_seal_blocks(blocks, [p](std::size_t i) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i * 4));
  });
  return head + scalar_tail(p, blocks * 4, n);
}

std::uint64_t avx2_count_and(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t n) {
  const std::size_t blocks = n / 4;
  const std::uint64_t head =
      harley_seal_blocks(blocks, [a, b](std::size_t i) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i * 4));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i * 4));
        return _mm256_and_si256(va, vb);
      });
  std::uint64_t tail = 0;
  for (std::size_t i = blocks * 4; i < n; ++i) {
    tail += static_cast<std::uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return head + tail;
}

std::uint64_t avx2_count_and3(const std::uint64_t* a, const std::uint64_t* b,
                              const std::uint64_t* m, std::size_t n) {
  const std::size_t blocks = n / 4;
  const std::uint64_t head =
      harley_seal_blocks(blocks, [a, b, m](std::size_t i) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i * 4));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i * 4));
        const __m256i vm =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + i * 4));
        return _mm256_and_si256(_mm256_and_si256(va, vb), vm);
      });
  std::uint64_t tail = 0;
  for (std::size_t i = blocks * 4; i < n; ++i) {
    tail += static_cast<std::uint64_t>(
        __builtin_popcountll(a[i] & b[i] & m[i]));
  }
  return head + tail;
}

std::uint64_t avx2_count_extract(const std::uint64_t* p, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const long long c0 = __builtin_popcountll(
        static_cast<unsigned long long>(_mm256_extract_epi64(v, 0)));
    const long long c1 = __builtin_popcountll(
        static_cast<unsigned long long>(_mm256_extract_epi64(v, 1)));
    const long long c2 = __builtin_popcountll(
        static_cast<unsigned long long>(_mm256_extract_epi64(v, 2)));
    const long long c3 = __builtin_popcountll(
        static_cast<unsigned long long>(_mm256_extract_epi64(v, 3)));
    acc = _mm256_add_epi64(acc, _mm256_set_epi64x(c3, c2, c1, c0));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint64_t out = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  return out + scalar_tail(p, i, n);
}

std::uint64_t avx2_count_and_extract(const std::uint64_t* a,
                                     const std::uint64_t* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i v = _mm256_and_si256(va, vb);
    const long long c0 = __builtin_popcountll(
        static_cast<unsigned long long>(_mm256_extract_epi64(v, 0)));
    const long long c1 = __builtin_popcountll(
        static_cast<unsigned long long>(_mm256_extract_epi64(v, 1)));
    const long long c2 = __builtin_popcountll(
        static_cast<unsigned long long>(_mm256_extract_epi64(v, 2)));
    const long long c3 = __builtin_popcountll(
        static_cast<unsigned long long>(_mm256_extract_epi64(v, 3)));
    acc = _mm256_add_epi64(acc, _mm256_set_epi64x(c3, c2, c1, c0));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint64_t out = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) {
    out += static_cast<std::uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return out;
}

}  // namespace ldla::detail
