// Oracle helpers shared by the driver property sweeps: naive references
// for the cross-matrix LD and the ω scan (built on baselines/naive), a
// sorted-list intersection, a bitwise value comparison, and the plan sweep
// of the two-plane drivers.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "baselines/naive.hpp"
#include "core/gemm/kernel.hpp"
#include "omega/omega_stat.hpp"
#include "omega/sweep_scan.hpp"

namespace ldla::oracle {

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bit-for-bit equality, except that any two NaNs match: the oracle's
/// scalar formulas return quiet_NaN for monomorphic SNPs, while the row
/// kernels produce 0 * inf, whose sign bit differs.
inline bool same_value(double a, double b) {
  return same_bits(a, b) || (std::isnan(a) && std::isnan(b));
}

/// Sorted-list intersection size by a two-pointer merge: the reference
/// for the sparse kernels' list counts.
inline std::uint32_t list_intersect_count(const std::uint32_t* a,
                                          std::size_t na,
                                          const std::uint32_t* b,
                                          std::size_t nb) {
  std::uint32_t hits = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < na && j < nb) {
    const std::uint32_t x = a[i];
    const std::uint32_t y = b[j];
    hits += static_cast<std::uint32_t>(x == y);
    i += static_cast<std::size_t>(x <= y);
    j += static_cast<std::size_t>(y <= x);
  }
  return hits;
}

/// Plans for the two-plane drivers (missing data, genotype LD), whose
/// interleaved row pairs must never straddle a tile edge: the default
/// plan, a small scalar blocking that crosses many cache tiles and k
/// panels, and — where one runs here — a 1x8 variant with an odd mc that
/// resolve_plan has to round to an even row block.
inline std::vector<GemmConfig> pair_block_configs() {
  std::vector<GemmConfig> cfgs(2);
  cfgs[1].arch = KernelArch::kScalar;
  cfgs[1].kc_words = 1;
  cfgs[1].mc = 8;
  cfgs[1].nc = 8;
  for (const KernelInfo* k : available_kernel_variants()) {
    if (k->mr != 1 || k->nr != 8) continue;
    GemmConfig odd;
    odd.arch = k->arch;
    odd.mr = k->mr;
    odd.nr = k->nr;
    odd.ku = k->ku;
    odd.kc_words = k->ku;
    odd.mc = 5;
    odd.nc = 16;
    cfgs.push_back(odd);
    break;
  }
  return cfgs;
}

/// A plan of the sweep, for failure messages.
inline std::string describe_plan(const GemmConfig& cfg) {
  return kernel_arch_name(cfg.arch) + " mr " + std::to_string(cfg.mr) +
         " mc " + std::to_string(cfg.mc);
}

/// LD between every SNP of `a` and every SNP of `b` via the per-bit loop.
inline LdMatrix naive_cross_ld_matrix(const BitMatrix& a, const BitMatrix& b,
                                      LdStatistic stat) {
  const CountMatrix counts = naive_count_matrix(a, b);
  LdMatrix out(a.snps(), b.snps());
  for (std::size_t i = 0; i < a.snps(); ++i) {
    const std::uint64_t ci = naive_pair_count(a, i, a, i);
    for (std::size_t j = 0; j < b.snps(); ++j) {
      out(i, j) = ld_value(stat, ci, naive_pair_count(b, j, b, j),
                           counts(i, j), a.samples());
    }
  }
  return out;
}

/// ω over SNP window [begin, end) of `g`, monomorphic SNPs dropped, every
/// r² from naive pair counts.
inline std::optional<OmegaPoint> naive_window(const BitMatrix& g, double x,
                                              std::size_t begin,
                                              std::size_t end) {
  if (end - begin < 4) return std::nullopt;
  std::vector<std::size_t> keep;
  for (std::size_t s = begin; s < end; ++s) {
    const std::uint64_t c = naive_pair_count(g, s, g, s);
    if (c > 0 && c < g.samples()) keep.push_back(s);
  }
  if (keep.size() < 4) return std::nullopt;
  LdMatrix r2(keep.size(), keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = ld_r_squared(naive_pair_count(g, keep[i], g, keep[i]),
                                    naive_pair_count(g, keep[j], g, keep[j]),
                                    naive_pair_count(g, keep[i], g, keep[j]),
                                    g.samples());
      r2(i, j) = v;
      r2(j, i) = v;
    }
  }
  const OmegaMax m = omega_max(r2);
  return OmegaPoint{x, m.omega, begin, end, m.split};
}

/// The documented ω scan (grid points, window search) over naive windows.
inline std::vector<OmegaPoint> naive_omega_scan(
    const BitMatrix& g, const std::vector<double>& positions,
    const SweepScanParams& params) {
  std::vector<OmegaPoint> out;
  if (g.snps() < 4) return out;
  for (std::size_t gp = 0; gp < params.grid_points; ++gp) {
    const double x = (static_cast<double>(gp) + 0.5) /
                     static_cast<double>(params.grid_points);
    const std::size_t center = static_cast<std::size_t>(
        std::lower_bound(positions.begin(), positions.end(), x) -
        positions.begin());
    const auto eval = [&](std::size_t half) {
      return naive_window(g, x, center > half ? center - half : 0,
                          half >= g.snps() - center ? g.snps() : center + half);
    };
    std::optional<OmegaPoint> best = eval(params.window_snps);
    for (const std::size_t half : params.window_candidates) {
      if (half == params.window_snps || half < 2) continue;
      const auto candidate = eval(half);
      if (candidate && (!best || candidate->omega > best->omega)) {
        best = candidate;
      }
    }
    if (best) out.push_back(*best);
  }
  return out;
}

}  // namespace ldla::oracle
