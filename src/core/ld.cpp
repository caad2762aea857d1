#include "core/ld.hpp"

#include <algorithm>
#include <bit>
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

namespace detail {

/// The dense drivers' output. matrix_body and cross_matrix_body write every
/// element from the team, so the matrix is built without the zero-fill and
/// each page is first touched by the member that writes it. Checked builds
/// fill it with a signalling-NaN pattern no statistic can produce (stat
/// arithmetic only ever yields quiet NaNs) and assert on return that no
/// element kept it.
struct LdOutput {
#if LDLA_CHECKED_BUILD
  static constexpr std::uint64_t kPoisonBits = 0x7FF4'0000'DEAD'BEEF;
#endif

  static LdMatrix make(std::size_t rows, std::size_t cols) {
    LdMatrix m(rows, cols, LdMatrix::Unzeroed{});
#if LDLA_CHECKED_BUILD
    std::fill_n(m.data(), rows * cols, std::bit_cast<double>(kPoisonBits));
#endif
    return m;
  }

  static void check_written([[maybe_unused]] const LdMatrix& m) {
#if LDLA_CHECKED_BUILD
    const double* v = m.data();
    LDLA_ASSERT_MSG(std::none_of(v, v + m.rows() * m.cols(),
                                 [](double x) {
                                   return std::bit_cast<std::uint64_t>(x) ==
                                          kPoisonBits;
                                 }),
                    "dense LD driver left an output element unwritten");
#endif
  }
};

}  // namespace detail

namespace {

unsigned resolve_threads(unsigned threads) {
  return threads == 0 ? default_thread_count() : threads;
}

// The self-matrix body takes the team size it hands to the tile nest:
// team = 1 is ld_matrix (whole cache tiles, inline), team > 1 its parallel
// twin.
LdMatrix matrix_body(const BitMatrix& g, const LdOptions& opts,
                     unsigned team) {
  const std::size_t n = g.snps();
  LdMatrix out = detail::LdOutput::make(n, n);
  if (n == 0) return out;
  LDLA_EXPECT(g.samples() > 0, "matrix has no samples");

  std::optional<PackedBitMatrix> own;
  const PackedBitMatrix& packed = resolve_packed(
      g.view(), opts.gemm, opts.packed, PackSides::kBoth, own, team);
  const detail::StatTables tables = detail::make_stat_tables(g);
  detail::symmetric_stats<1>(
      packed, detail::StatRows{opts.stat, tables, tables}, out, team);
  detail::LdOutput::check_written(out);
  return out;
}

}  // namespace

LdMatrix ld_matrix(const BitMatrix& g, const LdOptions& opts) {
  LDLA_METRICS_ONLY(
      static metrics::Histogram& h_call = metrics::histogram(
          "ldla_ld_matrix_seconds", "ld_matrix driver call latency");
      metrics::ScopedLatency metrics_lat(h_call);)
  return matrix_body(g, opts, 1);
}

LdMatrix ld_matrix_parallel(const BitMatrix& g, const LdOptions& opts,
                            unsigned threads) {
  LDLA_METRICS_ONLY(
      static metrics::Histogram& h_call = metrics::histogram(
          "ldla_ld_matrix_parallel_seconds",
          "ld_matrix_parallel driver call latency");
      metrics::ScopedLatency metrics_lat(h_call);)
  return matrix_body(g, opts, resolve_threads(threads));
}

LdMatrix ld_cross_matrix(const BitMatrix& a, const BitMatrix& b,
                         const LdOptions& opts, unsigned threads) {
  LDLA_METRICS_ONLY(
      static metrics::Histogram& h_call = metrics::histogram(
          "ldla_ld_cross_matrix_seconds",
          "ld_cross_matrix driver call latency");
      metrics::ScopedLatency metrics_lat(h_call);)
  LDLA_EXPECT(a.samples() == b.samples(),
              "cross-matrix LD needs matching sample sets");
  const std::size_t m = a.snps();
  const std::size_t n = b.snps();
  LdMatrix out = detail::LdOutput::make(m, n);
  if (m == 0 || n == 0) return out;
  LDLA_EXPECT(a.samples() > 0, "matrices have no samples");

  const unsigned team = resolve_threads(threads);
  std::optional<PackedBitMatrix> own_a;
  std::optional<PackedBitMatrix> own_b;
  const PackedBitMatrix& pa = resolve_packed(a.view(), opts.gemm, opts.packed,
                                             PackSides::kA, own_a, team);
  const PackedBitMatrix& pb = resolve_packed(
      b.view(), opts.gemm, opts.packed_b, PackSides::kB, own_b, team);
  const detail::StatTables ta = detail::make_stat_tables(a);
  const detail::StatTables tb = detail::make_stat_tables(b);
  detail::cross_stats<1>(pa, pb, detail::StatRows{opts.stat, ta, tb}, out,
                         team);
  detail::LdOutput::check_written(out);
  return out;
}

void ld_stat_scan(const BitMatrix& g, const LdTileVisitor& visit,
                  const LdOptions& opts, unsigned threads) {
  LDLA_METRICS_ONLY(
      static metrics::Histogram& h_call = metrics::histogram(
          "ldla_ld_stat_scan_seconds", "ld_stat_scan driver call latency");
      metrics::ScopedLatency metrics_lat(h_call);)
  const std::size_t n = g.snps();
  if (n == 0) return;
  LDLA_EXPECT(g.samples() > 0, "matrix has no samples");
  LDLA_EXPECT(visit != nullptr, "stat-tile scan needs a visitor");

  const unsigned team = resolve_threads(threads);
  std::optional<PackedBitMatrix> own;
  const PackedBitMatrix& packed = resolve_packed(
      g.view(), opts.gemm, opts.packed, PackSides::kBoth, own, team);
  const detail::StatTables tables = detail::make_stat_tables(g);
  detail::symmetric_scan<1>(packed,
                            detail::StatRows{opts.stat, tables, tables}, visit,
                            team);
}

void ld_cross_stat_scan(const BitMatrix& a, const BitMatrix& b,
                        const LdTileVisitor& visit, const LdOptions& opts,
                        unsigned threads) {
  LDLA_METRICS_ONLY(
      static metrics::Histogram& h_call = metrics::histogram(
          "ldla_ld_cross_stat_scan_seconds",
          "ld_cross_stat_scan driver call latency");
      metrics::ScopedLatency metrics_lat(h_call);)
  LDLA_EXPECT(a.samples() == b.samples(),
              "cross-matrix LD needs matching sample sets");
  const std::size_t m = a.snps();
  const std::size_t n = b.snps();
  if (m == 0 || n == 0) return;
  LDLA_EXPECT(a.samples() > 0, "matrices have no samples");
  LDLA_EXPECT(visit != nullptr, "stat-tile scan needs a visitor");

  const unsigned team = resolve_threads(threads);
  std::optional<PackedBitMatrix> own_a;
  std::optional<PackedBitMatrix> own_b;
  const PackedBitMatrix& pa = resolve_packed(a.view(), opts.gemm, opts.packed,
                                             PackSides::kA, own_a, team);
  const PackedBitMatrix& pb = resolve_packed(
      b.view(), opts.gemm, opts.packed_b, PackSides::kB, own_b, team);
  const detail::StatTables ta = detail::make_stat_tables(a);
  const detail::StatTables tb = detail::make_stat_tables(b);
  const detail::StatTileEmitter emit(detail::StatRows{opts.stat, ta, tb},
                                     pa.plan(), m, n, team, visit);
  gemm_count_fused(
      pa, 0, m, pb, 0, n,
      [&](const CountTile& t) { emit(t, detail::TilePart::kFull); }, team);
}

}  // namespace ldla
