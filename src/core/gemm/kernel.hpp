// Micro-kernel ABI and variant registry for the popcount-GEMM.
//
// A micro-kernel computes the register tile
//
//     C[i][j] += sum_{k=0}^{kc-1} POPCNT(Ap[k][i] & Bp[k][j])
//
// for i < mr, j < nr, over *packed* operand panels:
//
//   Ap: kc words of each of mr rows, interleaved in groups of ku words:
//       Ap[(kchunk*mr + i)*ku + kk]  holds word  k = kchunk*ku + kk  of row i
//   Bp: same layout with nr in place of mr.
//
// kc is always a multiple of ku (the packer zero-pads; zero words are
// identity elements of the (AND, POPCNT, +) semiring so padding is free).
// C is row-major with leading dimension ldc, accumulated into (beta = 1);
// callers zero C first for beta = 0 semantics.
//
// Kernels are generated from the template bodies in kernel_gen.hpp and
// instantiated over an (mr, nr, ku) grid by the kernels_*.cpp translation
// units; each TU exports its slice of the grid as a variant table, and the
// registry (dispatch.cpp) concatenates them. (arch, mr, nr, ku) uniquely
// identifies a variant, so a GemmPlan — including one read back from an
// LDLASH02 shard header — pins its kernel with no extra state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/gemm/config.hpp"

namespace ldla {

using MicroKernelFn = void (*)(std::size_t kc, const std::uint64_t* ap,
                               const std::uint64_t* bp, std::uint32_t* c,
                               std::size_t ldc);

struct KernelInfo {
  KernelArch arch = KernelArch::kScalar;
  const char* name = "";
  std::size_t mr = 0;
  std::size_t nr = 0;
  std::size_t ku = 0;
  MicroKernelFn fn = nullptr;
  /// The family's default geometry — what kernel_info(arch) and an untuned
  /// resolve_plan select (kept equal to the historical hand-written shapes
  /// so existing shard stores and baselines are unchanged).
  bool family_default = false;
};

/// Every kernel variant compiled into this build, all families — including
/// families the running CPU cannot execute (pair with kernel_available()).
/// Geometry invariants (mr,nr | 64, mr*nr <= 256, (arch,mr,nr,ku) unique)
/// are contract-checked once at first use.
std::span<const KernelInfo> kernel_registry();

/// The registry filtered to families available on the running CPU.
std::vector<const KernelInfo*> available_kernel_variants();

/// Exact-geometry lookup; nullptr when no such variant is compiled.
const KernelInfo* find_kernel(KernelArch arch, std::size_t mr, std::size_t nr,
                              std::size_t ku);

/// Lookup by unique variant name (the tuning cache's key); nullptr when
/// the name is unknown to this build.
const KernelInfo* find_kernel(std::string_view name);

/// Family-default lookup; `arch` must not be kAuto and must be available.
const KernelInfo& kernel_info(KernelArch arch);

/// The variant a resolved plan names: exact (arch, mr, nr, ku) match.
/// Throws when the geometry was never compiled or the family cannot run on
/// this CPU — a plan from resolve_plan or a validated shard header always
/// succeeds.
const KernelInfo& kernel_for_plan(const GemmPlan& plan);

// Per-TU variant tables (defined in the kernels_*.cpp translation units,
// which instantiate the kernel_gen.hpp templates under their ISA flags).
namespace kernels {
std::span<const KernelInfo> scalar_variants();
std::span<const KernelInfo> swar_variants();
#if LDLA_HAVE_AVX2_TU
std::span<const KernelInfo> avx2_variants();
#endif
#if LDLA_HAVE_AVX512_TU
std::span<const KernelInfo> avx512_variants();
#endif
}  // namespace kernels

}  // namespace ldla
