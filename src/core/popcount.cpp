#include "core/popcount.hpp"

#include <array>

#include "core/detail/popcount_simd.hpp"
#include "util/contract.hpp"
#include "util/cpu_info.hpp"

namespace ldla {

namespace {

// ---------------------------------------------------------------------------
// Scalar backends
// ---------------------------------------------------------------------------

std::uint64_t count_hw(const std::uint64_t* p, std::size_t n) {
  std::uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += static_cast<std::uint64_t>(__builtin_popcountll(p[i]));
    a1 += static_cast<std::uint64_t>(__builtin_popcountll(p[i + 1]));
    a2 += static_cast<std::uint64_t>(__builtin_popcountll(p[i + 2]));
    a3 += static_cast<std::uint64_t>(__builtin_popcountll(p[i + 3]));
  }
  for (; i < n; ++i) {
    a0 += static_cast<std::uint64_t>(__builtin_popcountll(p[i]));
  }
  return a0 + a1 + a2 + a3;
}

std::uint64_t count_swar(const std::uint64_t* p, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += popcount_u64_swar(p[i]);
  return acc;
}

const std::array<std::uint8_t, 65536>& lut16() {
  static const auto table = [] {
    std::array<std::uint8_t, 65536> t{};
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<std::uint8_t>(popcount_u64_swar(i));
    }
    return t;
  }();
  return table;
}

std::uint64_t count_lut16(const std::uint64_t* p, std::size_t n) {
  const auto& t = lut16();
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t w = p[i];
    acc += t[w & 0xffffu];
    acc += t[(w >> 16) & 0xffffu];
    acc += t[(w >> 32) & 0xffffu];
    acc += t[(w >> 48) & 0xffffu];
  }
  return acc;
}

PopcountMethod resolve_auto() {
  const CpuFeatures& f = cpu_features();
#if LDLA_HAVE_AVX512_TU
  if (f.avx512vpopcntdq && f.avx512f) return PopcountMethod::kAvx512Vpopcnt;
#endif
#if LDLA_HAVE_AVX2_TU
  if (f.avx2) return PopcountMethod::kHarleySealAvx2;
#endif
  if (f.popcnt) return PopcountMethod::kHardware;
  return PopcountMethod::kSwar;
}

[[noreturn]] void unavailable(PopcountMethod m) {
  throw ContractViolation("popcount backend '" + popcount_method_name(m) +
                          "' is unavailable on this CPU/build");
}

}  // namespace

std::string popcount_method_name(PopcountMethod m) {
  switch (m) {
    case PopcountMethod::kAuto: return "auto";
    case PopcountMethod::kHardware: return "scalar-popcnt";
    case PopcountMethod::kSwar: return "swar";
    case PopcountMethod::kLut16: return "lut16";
    case PopcountMethod::kPshufbSse: return "sse-pshufb";
    case PopcountMethod::kHarleySealAvx2: return "avx2-harley-seal";
    case PopcountMethod::kSimdExtract: return "simd-extract-strawman";
    case PopcountMethod::kAvx512Vpopcnt: return "avx512-vpopcntdq";
  }
  return "unknown";
}

bool popcount_method_available(PopcountMethod m) {
  const CpuFeatures& f = cpu_features();
  switch (m) {
    case PopcountMethod::kAuto:
    case PopcountMethod::kSwar:
    case PopcountMethod::kLut16:
      return true;
    case PopcountMethod::kHardware:
      return f.popcnt;
    case PopcountMethod::kPshufbSse:
#if LDLA_HAVE_SSE_TU
      return f.ssse3;
#else
      return false;
#endif
    case PopcountMethod::kHarleySealAvx2:
    case PopcountMethod::kSimdExtract:
#if LDLA_HAVE_AVX2_TU
      return f.avx2;
#else
      return false;
#endif
    case PopcountMethod::kAvx512Vpopcnt:
#if LDLA_HAVE_AVX512_TU
      return f.avx512f && f.avx512vpopcntdq;
#else
      return false;
#endif
  }
  return false;
}

PopcountMethod resolve_popcount_method(PopcountMethod m) {
  if (m == PopcountMethod::kAuto) return resolve_auto();
  if (!popcount_method_available(m)) unavailable(m);
  return m;
}

std::vector<PopcountMethod> available_popcount_methods() {
  std::vector<PopcountMethod> out;
  for (PopcountMethod m :
       {PopcountMethod::kHardware, PopcountMethod::kSwar,
        PopcountMethod::kLut16, PopcountMethod::kPshufbSse,
        PopcountMethod::kHarleySealAvx2, PopcountMethod::kSimdExtract,
        PopcountMethod::kAvx512Vpopcnt}) {
    if (popcount_method_available(m)) out.push_back(m);
  }
  return out;
}

std::uint64_t popcount_words(std::span<const std::uint64_t> words,
                             PopcountMethod m) {
  if (m == PopcountMethod::kAuto) m = resolve_auto();
  if (!popcount_method_available(m)) unavailable(m);
  const std::uint64_t* p = words.data();
  const std::size_t n = words.size();
  switch (m) {
    case PopcountMethod::kHardware: return count_hw(p, n);
    case PopcountMethod::kSwar: return count_swar(p, n);
    case PopcountMethod::kLut16: return count_lut16(p, n);
#if LDLA_HAVE_SSE_TU
    case PopcountMethod::kPshufbSse: return detail::sse_count(p, n);
#endif
#if LDLA_HAVE_AVX2_TU
    case PopcountMethod::kHarleySealAvx2: return detail::avx2_count(p, n);
    case PopcountMethod::kSimdExtract: return detail::avx2_count_extract(p, n);
#endif
#if LDLA_HAVE_AVX512_TU
    case PopcountMethod::kAvx512Vpopcnt: return detail::avx512_count(p, n);
#endif
    default: return count_swar(p, n);
  }
}

std::uint64_t popcount_and(std::span<const std::uint64_t> a,
                           std::span<const std::uint64_t> b,
                           PopcountMethod m) {
  LDLA_EXPECT(a.size() == b.size(), "operand word counts differ");
  if (m == PopcountMethod::kAuto) m = resolve_auto();
  if (!popcount_method_available(m)) unavailable(m);
  const std::size_t n = a.size();
  switch (m) {
    case PopcountMethod::kHardware: {
      std::uint64_t a0 = 0, a1 = 0;
      std::size_t i = 0;
      for (; i + 2 <= n; i += 2) {
        a0 += static_cast<std::uint64_t>(__builtin_popcountll(a[i] & b[i]));
        a1 += static_cast<std::uint64_t>(
            __builtin_popcountll(a[i + 1] & b[i + 1]));
      }
      if (i < n) {
        a0 += static_cast<std::uint64_t>(__builtin_popcountll(a[i] & b[i]));
      }
      return a0 + a1;
    }
    case PopcountMethod::kSwar: {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < n; ++i) acc += popcount_u64_swar(a[i] & b[i]);
      return acc;
    }
    case PopcountMethod::kLut16: {
      const auto& t = lut16();
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t w = a[i] & b[i];
        acc += t[w & 0xffffu];
        acc += t[(w >> 16) & 0xffffu];
        acc += t[(w >> 32) & 0xffffu];
        acc += t[(w >> 48) & 0xffffu];
      }
      return acc;
    }
#if LDLA_HAVE_SSE_TU
    case PopcountMethod::kPshufbSse:
      return detail::sse_count_and(a.data(), b.data(), n);
#endif
#if LDLA_HAVE_AVX2_TU
    case PopcountMethod::kHarleySealAvx2:
      return detail::avx2_count_and(a.data(), b.data(), n);
    case PopcountMethod::kSimdExtract:
      return detail::avx2_count_and_extract(a.data(), b.data(), n);
#endif
#if LDLA_HAVE_AVX512_TU
    case PopcountMethod::kAvx512Vpopcnt:
      return detail::avx512_count_and(a.data(), b.data(), n);
#endif
    default: {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < n; ++i) acc += popcount_u64_swar(a[i] & b[i]);
      return acc;
    }
  }
}

std::uint64_t popcount_and3(std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b,
                            std::span<const std::uint64_t> mask,
                            PopcountMethod m) {
  LDLA_EXPECT(a.size() == b.size() && b.size() == mask.size(),
              "operand word counts differ");
  if (m == PopcountMethod::kAuto) m = resolve_auto();
  if (!popcount_method_available(m)) unavailable(m);
  const std::size_t n = a.size();
  switch (m) {
#if LDLA_HAVE_AVX2_TU
    case PopcountMethod::kHarleySealAvx2:
      return detail::avx2_count_and3(a.data(), b.data(), mask.data(), n);
#endif
#if LDLA_HAVE_AVX512_TU
    case PopcountMethod::kAvx512Vpopcnt:
      return detail::avx512_count_and3(a.data(), b.data(), mask.data(), n);
#endif
    case PopcountMethod::kSwar: {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += popcount_u64_swar(a[i] & b[i] & mask[i]);
      }
      return acc;
    }
    default: {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        acc += static_cast<std::uint64_t>(
            __builtin_popcountll(a[i] & b[i] & mask[i]));
      }
      return acc;
    }
  }
}

}  // namespace ldla
