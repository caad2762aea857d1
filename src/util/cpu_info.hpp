// CPU feature detection and cache-topology discovery.
//
// Drives two things: (1) runtime selection of the widest usable LD
// micro-kernel, and (2) derivation of cache-blocking parameters so the
// packed panels fit the L1/L2/L3 levels the GotoBLAS analysis assumes.
#pragma once

#include <cstddef>
#include <string>

namespace ldla {

/// Instruction-set capabilities relevant to the LD kernels.
struct CpuFeatures {
  bool popcnt = false;        ///< scalar POPCNT instruction
  bool sse42 = false;         ///< SSE4.2 (implies usable 64-bit POPCNT)
  bool ssse3 = false;         ///< PSHUFB (table-lookup popcount strawman)
  bool avx2 = false;          ///< 256-bit integer SIMD (Harley-Seal kernel)
  bool avx512f = false;       ///< 512-bit foundation
  bool avx512bw = false;      ///< 512-bit byte/word ops
  bool avx512vpopcntdq = false;  ///< the vectorized POPCNT the paper asks for
};

/// Cache sizes in bytes; zero when a level could not be discovered.
struct CacheInfo {
  std::size_t l1d = 32 * 1024;
  std::size_t l2 = 1024 * 1024;
  std::size_t l3 = 0;
  std::size_t line = 64;
};

struct CpuInfo {
  CpuFeatures features;
  CacheInfo cache;
  unsigned logical_cores = 1;
  std::string brand;  ///< e.g. "Intel(R) Xeon(R) ..." when available
};

/// Detect once and cache; thread-safe.
const CpuInfo& cpu_info();

/// The instruction-set bits alone (cpu_info().features holds the same
/// value): CPUID and XCR0 reads on first use, no allocation. Every ISA
/// dispatcher reads this one, so they cannot disagree, and a dispatch that
/// runs first (the ms parser's transpose, the first popcount) leaves no
/// strings between the caller's large buffers.
const CpuFeatures& cpu_features();

/// Human-readable one-line summary (for bench headers).
std::string cpu_summary();

/// Pin the calling thread to logical CPU `core` (modulo the visible core
/// count). Returns false when unsupported on this platform or when the
/// scheduler rejects the mask (restricted cgroups, offline cores).
bool pin_current_thread_to_core(unsigned core);

}  // namespace ldla
