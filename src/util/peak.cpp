#include "util/peak.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/aligned_buffer.hpp"
#include "util/cpu_info.hpp"
#include "util/timer.hpp"

namespace ldla {
namespace {

// Streaming (AND, POPCNT, ADD) over two L1-resident word arrays with four
// independent accumulator chains — the same instruction mix as the LD
// micro-kernel with all data in L1, so it measures the attainable peak.
double measure_scalar_triples() {
  constexpr std::size_t kWords = 2048;  // 16 KiB per operand, fits L1
  AlignedBuffer<std::uint64_t> a(kWords), b(kWords);
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < kWords; ++i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    a[i] = seed;
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    b[i] = seed;
  }

  constexpr int kRepeats = 4096;
  std::uint64_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
  Timer t;
  for (int r = 0; r < kRepeats; ++r) {
    const std::uint64_t* pa = a.data();
    const std::uint64_t* pb = b.data();
    for (std::size_t i = 0; i < kWords; i += 4) {
      acc0 += static_cast<std::uint64_t>(__builtin_popcountll(pa[i] & pb[i]));
      acc1 += static_cast<std::uint64_t>(
          __builtin_popcountll(pa[i + 1] & pb[i + 1]));
      acc2 += static_cast<std::uint64_t>(
          __builtin_popcountll(pa[i + 2] & pb[i + 2]));
      acc3 += static_cast<std::uint64_t>(
          __builtin_popcountll(pa[i + 3] & pb[i + 3]));
    }
  }
  const double sec = t.seconds();
  do_not_optimize(acc0 + acc1 + acc2 + acc3);
  return static_cast<double>(kWords) * kRepeats / sec;
}

double measure_vector_triples();

PeakEstimate calibrate() {
  // Best of three probes per quantity: on shared/virtualized hosts a single
  // probe can land in a contended slice and understate the peak, which
  // would inflate every %-of-peak figure derived from it.
  PeakEstimate p;
  for (int rep = 0; rep < 3; ++rep) {
    p.scalar_triples_per_sec =
        std::max(p.scalar_triples_per_sec, measure_scalar_triples());
    if (cpu_features().avx512vpopcntdq) {
      p.vector_triples_per_sec =
          std::max(p.vector_triples_per_sec, measure_vector_triples());
    }
  }
  p.core_hz = estimated_core_hz();
  return p;
}

// The AVX-512 path lives in this TU but is only executed behind the CPUID
// check above; compiled with the target attribute so the base TU flags do
// not need -mavx512*.
__attribute__((target("avx512f,avx512vpopcntdq"))) double
measure_vector_triples() {
#if defined(__x86_64__)
  constexpr std::size_t kWords = 2048;
  AlignedBuffer<std::uint64_t> a(kWords), b(kWords);
  std::uint64_t seed = 0x853c49e6748fea9bull;
  for (std::size_t i = 0; i < kWords; ++i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    a[i] = seed;
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    b[i] = seed;
  }

  constexpr int kRepeats = 8192;
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  __m512i acc2 = _mm512_setzero_si512();
  __m512i acc3 = _mm512_setzero_si512();
  Timer t;
  for (int r = 0; r < kRepeats; ++r) {
    const std::uint64_t* pa = a.data();
    const std::uint64_t* pb = b.data();
    for (std::size_t i = 0; i < kWords; i += 32) {
      const __m512i va0 = _mm512_load_si512(pa + i);
      const __m512i vb0 = _mm512_load_si512(pb + i);
      const __m512i va1 = _mm512_load_si512(pa + i + 8);
      const __m512i vb1 = _mm512_load_si512(pb + i + 8);
      const __m512i va2 = _mm512_load_si512(pa + i + 16);
      const __m512i vb2 = _mm512_load_si512(pb + i + 16);
      const __m512i va3 = _mm512_load_si512(pa + i + 24);
      const __m512i vb3 = _mm512_load_si512(pb + i + 24);
      acc0 = _mm512_add_epi64(acc0,
                              _mm512_popcnt_epi64(_mm512_and_si512(va0, vb0)));
      acc1 = _mm512_add_epi64(acc1,
                              _mm512_popcnt_epi64(_mm512_and_si512(va1, vb1)));
      acc2 = _mm512_add_epi64(acc2,
                              _mm512_popcnt_epi64(_mm512_and_si512(va2, vb2)));
      acc3 = _mm512_add_epi64(acc3,
                              _mm512_popcnt_epi64(_mm512_and_si512(va3, vb3)));
    }
  }
  const double sec = t.seconds();
  const __m512i sum =
      _mm512_add_epi64(_mm512_add_epi64(acc0, acc1), _mm512_add_epi64(acc2, acc3));
  const auto total =
      static_cast<std::uint64_t>(_mm512_reduce_add_epi64(sum));
  do_not_optimize(total);
  return static_cast<double>(kWords) * kRepeats / sec;
#else
  return 0.0;
#endif
}

}  // namespace

const PeakEstimate& peak_estimate() {
  static const PeakEstimate p = calibrate();
  return p;
}

double scalar_peak_triples_per_sec() { return peak_estimate().core_hz; }

}  // namespace ldla
