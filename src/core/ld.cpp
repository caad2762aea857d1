#include "core/ld.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "core/detail/ld_stats_row.hpp"
#include "core/gemm/macro.hpp"
#include "core/parallel.hpp"
#include "util/contract.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace ldla {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}

std::string ld_statistic_name(LdStatistic s) {
  switch (s) {
    case LdStatistic::kD: return "D";
    case LdStatistic::kDPrime: return "D'";
    case LdStatistic::kRSquared: return "r^2";
  }
  return "unknown";
}

double ld_d(std::uint64_t ci, std::uint64_t cj, std::uint64_t cij,
            std::uint64_t nseq) {
  LDLA_EXPECT(nseq > 0, "sample size must be positive");
  const double n = static_cast<double>(nseq);
  const double pij = static_cast<double>(cij) / n;
  const double pi = static_cast<double>(ci) / n;
  const double pj = static_cast<double>(cj) / n;
  return pij - pi * pj;
}

double ld_r_squared(std::uint64_t ci, std::uint64_t cj, std::uint64_t cij,
                    std::uint64_t nseq) {
  LDLA_EXPECT(nseq > 0, "sample size must be positive");
  const double n = static_cast<double>(nseq);
  const double pi = static_cast<double>(ci) / n;
  const double pj = static_cast<double>(cj) / n;
  if (pi <= 0.0 || pi >= 1.0 || pj <= 0.0 || pj >= 1.0) {
    return kNaN;  // monomorphic SNP: r^2 undefined
  }
  // The operation order matches detail::stat_row exactly so the scalar and
  // vectorized row paths agree bit-for-bit.
  const double inv_i = 1.0 / (pi * (1.0 - pi));
  const double inv_j = 1.0 / (pj * (1.0 - pj));
  const double pij = static_cast<double>(cij) / n;
  const double d = pij - pi * pj;
  const double r = (d * d) * (inv_i * inv_j);
  // Clamp tiny floating-point excursions so the documented r^2 in [0, 1]
  // invariant holds exactly.
  return r > 1.0 ? 1.0 : r;
}

double ld_d_prime(std::uint64_t ci, std::uint64_t cj, std::uint64_t cij,
                  std::uint64_t nseq) {
  LDLA_EXPECT(nseq > 0, "sample size must be positive");
  const double n = static_cast<double>(nseq);
  const double pi = static_cast<double>(ci) / n;
  const double pj = static_cast<double>(cj) / n;
  if (pi <= 0.0 || pi >= 1.0 || pj <= 0.0 || pj >= 1.0) return kNaN;
  const double d = static_cast<double>(cij) / n - pi * pj;
  double dmax;
  if (d >= 0.0) {
    dmax = std::min(pi * (1.0 - pj), (1.0 - pi) * pj);
  } else {
    dmax = std::min(pi * pj, (1.0 - pi) * (1.0 - pj));
  }
  if (dmax <= 0.0) return kNaN;
  return std::clamp(d / dmax, -1.0, 1.0);
}

double ld_value(LdStatistic stat, std::uint64_t ci, std::uint64_t cj,
                std::uint64_t cij, std::uint64_t nseq) {
  switch (stat) {
    case LdStatistic::kD: return ld_d(ci, cj, cij, nseq);
    case LdStatistic::kDPrime: return ld_d_prime(ci, cj, cij, nseq);
    case LdStatistic::kRSquared: return ld_r_squared(ci, cj, cij, nseq);
  }
  return kNaN;
}

void mirror_ld_lower_to_upper(LdMatrix& m) {
  LDLA_EXPECT(m.cols() == m.rows(), "mirror needs a square matrix");
  detail::mirror_lower_blocked(m.data(), m.cols(), m.rows());
}

LdOperand::LdOperand(const BitMatrix& g)
    : rows_(&g), snps_(g.snps()), kind_(Haplotypes{}) {
  LDLA_EXPECT(g.snps() == 0 || g.samples() > 0, "matrix has no samples");
}

namespace {

unsigned resolve_threads(unsigned threads) {
  return threads == 0 ? default_thread_count() : threads;
}

}  // namespace

LdMatrix ld_matrix(const LdOperand& g, const LdOptions& opts,
                   unsigned threads) {
  LDLA_METRICS_ONLY(
      static metrics::Histogram& h_call = metrics::histogram(
          "ldla_ld_matrix_seconds", "ld_matrix driver call latency");
      metrics::ScopedLatency metrics_lat(h_call);)
  if (g.snps() == 0) return {};
  const unsigned team = resolve_threads(threads);
  LdMatrix out;
  detail::visit_rows(g, g, opts.stat, [&](auto unit, const auto& row) {
    std::optional<PackedBitMatrix> own;
    const PackedBitMatrix& packed = resolve_packed(
        g.rows().view(), opts.gemm, opts.packed, PackSides::kBoth, own, team);
    out = detail::symmetric_stats<unit>(packed, row, team);
  });
  return out;
}

LdMatrix ld_matrix_parallel(const BitMatrix& g, const LdOptions& opts,
                            unsigned threads) {
  return ld_matrix(g, opts, threads);
}

LdMatrix ld_cross_matrix(const LdOperand& a, const LdOperand& b,
                         const LdOptions& opts, unsigned threads) {
  LDLA_METRICS_ONLY(
      static metrics::Histogram& h_call = metrics::histogram(
          "ldla_ld_cross_matrix_seconds",
          "ld_cross_matrix driver call latency");
      metrics::ScopedLatency metrics_lat(h_call);)
  LDLA_EXPECT(a.rows().samples() == b.rows().samples(),
              "cross-matrix LD needs matching sample sets");
  if (a.snps() == 0 || b.snps() == 0) return LdMatrix(a.snps(), b.snps());

  const unsigned team = resolve_threads(threads);
  LdMatrix out;
  detail::visit_rows(a, b, opts.stat, [&](auto unit, const auto& row) {
    std::optional<PackedBitMatrix> own_a;
    std::optional<PackedBitMatrix> own_b;
    const PackedBitMatrix& pa = resolve_packed(
        a.rows().view(), opts.gemm, opts.packed, PackSides::kA, own_a, team);
    const PackedBitMatrix& pb = resolve_packed(
        b.rows().view(), opts.gemm, opts.packed_b, PackSides::kB, own_b, team);
    out = detail::cross_stats<unit>(pa, pb, row, team);
  });
  return out;
}

void ld_stat_scan(const LdOperand& g, const LdTileVisitor& visit,
                  const LdOptions& opts, unsigned threads) {
  LDLA_METRICS_ONLY(
      static metrics::Histogram& h_call = metrics::histogram(
          "ldla_ld_stat_scan_seconds", "ld_stat_scan driver call latency");
      metrics::ScopedLatency metrics_lat(h_call);)
  if (g.snps() == 0) return;
  LDLA_EXPECT(visit != nullptr, "stat-tile scan needs a visitor");

  const unsigned team = resolve_threads(threads);
  detail::visit_rows(g, g, opts.stat, [&](auto unit, const auto& row) {
    std::optional<PackedBitMatrix> own;
    const PackedBitMatrix& packed = resolve_packed(
        g.rows().view(), opts.gemm, opts.packed, PackSides::kBoth, own, team);
    detail::symmetric_scan<unit>(packed, row, visit, team);
  });
}

void ld_cross_stat_scan(const LdOperand& a, const LdOperand& b,
                        const LdTileVisitor& visit, const LdOptions& opts,
                        unsigned threads) {
  LDLA_METRICS_ONLY(
      static metrics::Histogram& h_call = metrics::histogram(
          "ldla_ld_cross_stat_scan_seconds",
          "ld_cross_stat_scan driver call latency");
      metrics::ScopedLatency metrics_lat(h_call);)
  LDLA_EXPECT(a.rows().samples() == b.rows().samples(),
              "cross-matrix LD needs matching sample sets");
  if (a.snps() == 0 || b.snps() == 0) return;
  LDLA_EXPECT(visit != nullptr, "stat-tile scan needs a visitor");

  const unsigned team = resolve_threads(threads);
  detail::visit_rows(a, b, opts.stat, [&](auto unit, const auto& row) {
    std::optional<PackedBitMatrix> own_a;
    std::optional<PackedBitMatrix> own_b;
    const PackedBitMatrix& pa = resolve_packed(
        a.rows().view(), opts.gemm, opts.packed, PackSides::kA, own_a, team);
    const PackedBitMatrix& pb = resolve_packed(
        b.rows().view(), opts.gemm, opts.packed_b, PackSides::kB, own_b, team);
    const detail::StatTileEmitter emit(row, pa.plan(), a.snps(), b.snps(),
                                       team, visit);
    gemm_count_fused(
        pa, 0, pa.snps(), pb, 0, pb.snps(),
        [&](const CountTile& t) {
          emit(detail::snp_tile<unit>(t), detail::TilePart::kFull);
        },
        team);
  });
}

}  // namespace ldla
