// Blocking configuration for the popcount-GEMM (the GotoBLAS parameters).
//
// Names follow the GotoBLAS/BLIS convention: the k dimension is split into
// kc-word panels (packed to fit L1/L2), m into mc-row blocks (packed A block
// resident in L2), n into nc-column panels (packed B panel resident in L3),
// and the macro-kernel sweeps mr x nr register tiles.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ldla {

/// Which micro-kernel implementation the GEMM uses.
enum class KernelArch {
  kAuto,      ///< widest available (runtime CPUID dispatch)
  kScalar,    ///< scalar 64-bit POPCNT micro-kernel (the paper's kernel)
  kSwar,      ///< portable bit-twiddling popcount (no POPCNT instruction)
  kStrawman,  ///< Section V strawman: AVX2 AND + lane extract + scalar POPCNT
  kAvx2,      ///< AVX2 PSHUFB-popcount micro-kernel (best pre-VPOPCNT SIMD)
  kAvx512,    ///< AVX-512 VPOPCNTDQ micro-kernel, 4x4 register tile
  kAvx512Wide,///< AVX-512 VPOPCNTDQ, 2x8 tile (tile-geometry ablation)
};

std::string kernel_arch_name(KernelArch a);

/// Sentinel for GemmConfig::sparse_threshold: resolve the threshold from
/// the crossover model at pack time (see resolve_plan).
inline constexpr std::size_t kSparseThresholdAuto =
    static_cast<std::size_t>(-1);

struct GemmConfig {
  KernelArch arch = KernelArch::kAuto;

  /// Register-tile geometry override selecting one variant from the kernel
  /// registry (kernel.hpp). Zero means "the family's default variant"; when
  /// any of the three is set, all three must be, and (arch, mr, nr, ku)
  /// must name a registered variant or resolve_plan throws. Written by
  /// tune_gemm_config and the tuning cache; rarely set by hand.
  std::size_t mr = 0;
  std::size_t nr = 0;
  std::size_t ku = 0;

  /// Cache-blocking parameters in *words* (kc) and rows/columns (mc, nc).
  /// Zero means "derive from the detected cache hierarchy". Values larger
  /// than the problem degenerate to a single block on that axis (the
  /// "blocking off" plan of bench_blocking_ablation).
  std::size_t kc_words = 0;
  std::size_t mc = 0;
  std::size_t nc = 0;

  /// MAF-adaptive sparse columns (DESIGN.md §4.6). Columns (SNP rows) whose
  /// allele count — or zero count, for the near-all-ones complement trick —
  /// is <= this threshold are additionally stored as sorted sample-index
  /// lists at pack time, and the fused drivers dispatch register tiles made
  /// entirely of such columns to list×list / list×dense kernels instead of
  /// the dense micro-kernel. Counts are integers, so results stay
  /// bit-identical to the dense path regardless of dispatch.
  /// kSparseThresholdAuto resolves to the list-vs-dense crossover
  /// (= words per SNP: a list shorter than the row's word count does
  /// strictly less work than the dense AND+POPCNT row walk); 0 disables
  /// the sparse representation entirely (the dense-only control).
  /// Reaches every driver through the GemmConfig member of LdOptions,
  /// BandOptions, and SweepScanParams.
  std::size_t sparse_threshold = kSparseThresholdAuto;
};

/// Every cache-tile and team-chunk edge of the fused nest falls on a
/// multiple of this many operand rows: resolve_plan rounds mc and nc to
/// multiples of lcm(register tile, kTileEdgeRows), and team chunks are
/// multiples of lcm(nr, kTileEdgeRows). Drivers that interleave up to four
/// planes per SNP by row (missing data, genotype LD, Zaykin's T) therefore
/// always receive whole per-SNP blocks.
inline constexpr std::size_t kTileEdgeRows = 4;

/// Fully-resolved blocking plan for a concrete problem.
struct GemmPlan {
  KernelArch arch = KernelArch::kScalar;
  std::size_t mr = 4;
  std::size_t nr = 4;
  std::size_t ku = 1;  ///< k-dimension unroll granularity of the kernel
  std::size_t kc_words = 256;
  std::size_t mc = 64;
  std::size_t nc = 4096;
  /// Resolved allele-count threshold for sparse columns (0 = disabled).
  std::size_t sparse_threshold = 0;
};

/// Resolve `cfg` against the machine (kernel availability, cache sizes) and
/// the problem's k extent. Throws when a forced kernel is unavailable.
GemmPlan resolve_plan(const GemmConfig& cfg, std::size_t k_words);

/// Kernel usable on this CPU/build?
bool kernel_available(KernelArch a);

/// All kernels usable on this CPU/build (excluding kAuto).
std::vector<KernelArch> available_kernels();

}  // namespace ldla
