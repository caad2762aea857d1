// Internal declarations for the ISA-specific popcount translation units
// (which also hold the AVX-512 bit-transpose block kernel).
//
// These TUs are compiled with explicit -mavx2 / -mavx512* flags and must
// only be *called* behind the CPUID checks in popcount.cpp and
// bit_transpose.cpp.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ldla::detail {

#if LDLA_HAVE_SSE_TU
std::uint64_t sse_count(const std::uint64_t* p, std::size_t n);
std::uint64_t sse_count_and(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t n);
#endif

#if LDLA_HAVE_AVX2_TU
std::uint64_t avx2_count(const std::uint64_t* p, std::size_t n);
std::uint64_t avx2_count_and(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t n);
std::uint64_t avx2_count_and3(const std::uint64_t* a, const std::uint64_t* b,
                              const std::uint64_t* m, std::size_t n);
// The paper's Section V strawman: SIMD AND then per-lane extract + scalar
// POPCNT + re-insert + vector add.
std::uint64_t avx2_count_extract(const std::uint64_t* p, std::size_t n);
std::uint64_t avx2_count_and_extract(const std::uint64_t* a,
                                     const std::uint64_t* b, std::size_t n);
#endif

#if LDLA_HAVE_AVX512_TU
std::uint64_t avx512_count(const std::uint64_t* p, std::size_t n);
std::uint64_t avx512_count_and(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n);
std::uint64_t avx512_count_and3(const std::uint64_t* a, const std::uint64_t* b,
                                const std::uint64_t* m, std::size_t n);
// 64x64 bit-block transpose (a BlockTransposeFn, core/bit_transpose.hpp):
// reads src[i * src_stride], writes the transpose to dst[i * dst_stride].
void avx512_transpose_64x64(const std::uint64_t* src, std::size_t src_stride,
                            std::uint64_t* dst, std::size_t dst_stride);
#endif

}  // namespace ldla::detail
