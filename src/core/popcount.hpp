// Population-count backends (Section IV-A / Section V of the paper).
//
// The LD inner product is  sum_k POPCNT(a_k & b_k).  The paper's argument:
//  * the scalar POPCNT instruction beats all software popcounts (refs 17,18);
//  * SIMD *without* a vectorized popcount (extract each lane, scalar POPCNT,
//    re-insert) is no faster than scalar — the extraction serializes;
//  * a hardware vectorized popcount (now real: AVX-512 VPOPCNTDQ) restores
//    the v-fold SIMD speedup.
// Every one of those arms is implemented here so the claims can be measured.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ldla {

enum class PopcountMethod {
  kAuto,          ///< best available (runtime dispatch)
  kHardware,      ///< scalar 64-bit POPCNT instruction
  kSwar,          ///< branch-free bit-twiddling (portable fallback)
  kLut16,         ///< 16-bit lookup table
  kPshufbSse,     ///< 128-bit SSSE3 PSHUFB nibble counts (Section V's "SSE")
  kHarleySealAvx2,///< AVX2 carry-save-adder + PSHUFB nibble counts
  kSimdExtract,   ///< the paper's strawman: SIMD AND, per-lane extract+POPCNT
  kAvx512Vpopcnt, ///< AVX-512 VPOPCNTDQ — the hardware support the paper asks for
};

/// Human-readable backend name.
std::string popcount_method_name(PopcountMethod m);

/// Backends usable on this CPU (always includes the portable ones).
std::vector<PopcountMethod> available_popcount_methods();

/// True when `m` can run on this CPU.
bool popcount_method_available(PopcountMethod m);

/// Resolve kAuto to the concrete backend the dispatch would pick (and
/// validate availability of an explicit choice). Callers looping over many
/// rows hoist this out of the loop and pass the result down, so the
/// per-row calls skip the CPUID-based re-resolution.
PopcountMethod resolve_popcount_method(PopcountMethod m = PopcountMethod::kAuto);

/// Total set bits in `words`.
std::uint64_t popcount_words(std::span<const std::uint64_t> words,
                             PopcountMethod m = PopcountMethod::kAuto);

/// The LD inner product: sum_k POPCNT(a[k] & b[k]). Spans must be equal size.
std::uint64_t popcount_and(std::span<const std::uint64_t> a,
                           std::span<const std::uint64_t> b,
                           PopcountMethod m = PopcountMethod::kAuto);

/// Three-way variant for the missing-data extension (Section VII):
/// sum_k POPCNT(a[k] & b[k] & mask[k]).
std::uint64_t popcount_and3(std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b,
                            std::span<const std::uint64_t> mask,
                            PopcountMethod m = PopcountMethod::kAuto);

/// Single-word portable popcount used by the SWAR backend (exposed for tests).
constexpr std::uint64_t popcount_u64_swar(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return (x * 0x0101010101010101ull) >> 56;
}

}  // namespace ldla
