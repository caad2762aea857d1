// Internal: per-row LD statistic evaluation over a row of pair counts, and
// the one stat epilogue every LD driver hands its count tiles to.
//
// The D = H - p pᵀ (and r²) pass is itself a dense O(n²) operation; doing
// it with branch-free arithmetic over precomputed per-SNP factors lets the
// compiler vectorize it, so the statistics layer never dominates the GEMM
// (the paper's DLA formulation computes D exactly this way). Monomorphic
// SNPs produce NaN naturally: d is exactly 0 there and inv = +inf, and
// 0 * inf = NaN. The arithmetic matches ld_r_squared / ld_d operation for
// operation, so scalar and row paths agree bit-for-bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/bit_matrix.hpp"
#include "core/detail/mirror.hpp"
#include "core/gemm/macro.hpp"
#include "core/ld.hpp"
#include "util/aligned_buffer.hpp"
#include "util/contract.hpp"
#include "util/trace.hpp"

namespace ldla::detail {

/// Precomputed per-SNP factors for the fast statistic rows.
struct StatTables {
  std::uint64_t nseq = 0;
  double n = 0.0;                ///< sample count as double
  std::vector<double> p;         ///< allele frequency P_i = c_i / Nseq
  std::vector<double> inv;       ///< 1 / (P_i (1 - P_i)); +inf if monomorphic
  std::vector<std::uint64_t> c;  ///< raw derived counts (generic fallback)
};

inline StatTables make_stat_tables(const BitMatrix& g) {
  StatTables t;
  t.nseq = g.samples();
  t.n = static_cast<double>(g.samples());
  t.p.resize(g.snps());
  t.inv.resize(g.snps());
  t.c.resize(g.snps());
  for (std::size_t s = 0; s < g.snps(); ++s) {
    const std::uint64_t c = g.derived_count(s);
    t.c[s] = c;
    const double p = static_cast<double>(c) / t.n;
    t.p[s] = p;
    t.inv[s] = 1.0 / (p * (1.0 - p));
  }
  return t;
}

/// Same tables from already-known per-SNP derived counts (the shard store
/// persists pack-time popcounts, so the streaming driver never touches the
/// bit matrix). Arithmetic is identical operation-for-operation to
/// make_stat_tables, which is what keeps streamed statistics bit-identical
/// to the in-memory drivers.
inline StatTables make_stat_tables_from_counts(
    const std::vector<std::uint64_t>& counts, std::uint64_t nseq) {
  StatTables t;
  t.nseq = nseq;
  t.n = static_cast<double>(nseq);
  t.p.resize(counts.size());
  t.inv.resize(counts.size());
  t.c = counts;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    const double p = static_cast<double>(counts[s]) / t.n;
    t.p[s] = p;
    t.inv[s] = 1.0 / (p * (1.0 - p));
  }
  return t;
}

/// out[j] = statistic(row SNP i of `ta`, column SNP col_begin + j of `tb`)
/// for j in [0, cols), given this row's pair counts: counts[j] =
/// POPCNT(s_i & s_{col_begin+j}). Same-matrix callers pass one table twice.
inline void stat_row(LdStatistic stat, const StatTables& ta, std::size_t i,
                     const StatTables& tb, std::size_t col_begin,
                     const std::uint32_t* counts, std::size_t cols,
                     double* out) {
  const double pi = ta.p[i];
  const double inv_i = ta.inv[i];
  const double n = ta.n;
  switch (stat) {
    case LdStatistic::kRSquared: {
      const double* p = tb.p.data() + col_begin;
      const double* inv = tb.inv.data() + col_begin;
      for (std::size_t j = 0; j < cols; ++j) {
        const double pij = static_cast<double>(counts[j]) / n;
        const double d = pij - pi * p[j];
        const double r = (d * d) * (inv_i * inv[j]);
        out[j] = r > 1.0 ? 1.0 : r;  // NaN compares false: preserved
      }
      break;
    }
    case LdStatistic::kD: {
      const double* p = tb.p.data() + col_begin;
      for (std::size_t j = 0; j < cols; ++j) {
        const double pij = static_cast<double>(counts[j]) / n;
        out[j] = pij - pi * p[j];
      }
      break;
    }
    case LdStatistic::kDPrime: {
      // Sign-dependent normalization: generic scalar path.
      for (std::size_t j = 0; j < cols; ++j) {
        out[j] = ld_d_prime(ta.c[i], tb.c[col_begin + j], counts[j],
                            ta.nseq);
      }
      break;
    }
  }
}

// ---- the stat epilogue: every LD driver's CountTile sink ------------------

/// Which entries of a count tile the epilogue converts.
enum class TilePart {
  kFull,   ///< the whole rectangle (cross shapes, strictly-lower blocks)
  kLower,  ///< canonical entries only: global col <= global row (SYRK tiles)
};

/// Destination window of the epilogue: the statistic for global pair
/// (i, j) lands at data[(i - row0) * ld + (j - col0)].
struct StatWindow {
  double* data = nullptr;
  std::size_t ld = 0;
  std::size_t row0 = 0;
  std::size_t col0 = 0;
};

/// Convert the selected part of count tile `t` (global indices: rows of
/// `ta`, columns of `tb`) into `dst`. Distinct tiles write disjoint parts
/// of the window, so concurrent team members may share one window.
inline void tile_stats(LdStatistic stat, const StatTables& ta,
                       const StatTables& tb, const CountTile& t, TilePart part,
                       const StatWindow& dst) {
  LDLA_TRACE_SPAN(kEpilogue);
  std::uint64_t rows_converted = 0;
  for (std::size_t i = 0; i < t.rows; ++i) {
    const std::size_t gi = t.row_begin + i;
    std::size_t width = t.cols;
    if (part == TilePart::kLower) {
      if (gi < t.col_begin) continue;
      width = std::min(t.col_begin + t.cols, gi + 1) - t.col_begin;
    }
    stat_row(stat, ta, gi, tb, t.col_begin, t.row(i), width,
             dst.data + (gi - dst.row0) * dst.ld + (t.col_begin - dst.col0));
    ++rows_converted;
  }
  LDLA_TRACE_ADD_EPILOGUE_ROWS(rows_converted);
}

/// Second step of the symmetric sink: copy the strictly-lower statistics
/// tile_stats just wrote for SYRK tile `t` onto their transposes above the
/// diagonal of the square window `dst`, while the tile is still hot. Every
/// strictly-lower pair lies in exactly one tile, so transposes of distinct
/// tiles are disjoint and concurrent team members may share the window.
/// All three statistics are bitwise symmetric in (i, j) (their formulas
/// combine the operands only through commutative products and min), so
/// this equals statistics of mirrored counts bit-for-bit.
inline void mirror_tile_stats(const CountTile& t, const StatWindow& dst) {
  LDLA_ASSERT_MSG(dst.row0 == dst.col0, "mirror needs a square window");
  LDLA_TRACE_SPAN(kEpilogue);
  const std::size_t r0 = t.row_begin - dst.row0;
  const std::size_t c0 = t.col_begin - dst.col0;
  mirror_lower_window(dst.data, dst.ld, r0, r0 + t.rows, c0, c0 + t.cols);
}

/// The one stat-tile emitter behind every streaming LD driver (ld_stat_scan,
/// ld_cross_stat_scan, ld_matrix_stream, ld_cross_stream): it rebases each
/// count tile to global SNP indices, converts the selected part and hands
/// it to the visitor. A full tile, or a SYRK tile wholly on/below the
/// diagonal, goes out as one LdTile; a diagonal-crossing SYRK tile goes out
/// as one-row fragments holding only each row's canonical prefix, so no
/// entry above the diagonal ever escapes.
///
/// Scratch is per team member and bounded by one cache tile of the plan
/// that produces the tiles: a team of one converts into a buffer the
/// emitter owns; any other team calls the emitter concurrently, and each
/// member converts into its own thread-local buffer, grown once and reused
/// for the life of its thread.
class StatTileEmitter {
 public:
  /// Tiles come from `plan` over at most `rows` x `cols` SNP pairs; `team`
  /// is the size handed to the tile driver (0 = default_thread_count()).
  StatTileEmitter(LdStatistic stat, const StatTables& ta, const StatTables& tb,
                  const GemmPlan& plan, std::size_t rows, std::size_t cols,
                  unsigned team, const LdTileVisitor& visit)
      : stat_(stat),
        ta_(ta),
        tb_(tb),
        visit_(visit),
        team_(team),
        scratch_n_(std::min(plan.mc, rows) * std::min(plan.nc, cols)),
        own_(team == 1 ? scratch_n_ : 0) {}

  /// Emit the selected part of `t`, whose indices are local to operands
  /// starting at global row `row_base` of `ta` and column `col_base` of
  /// `tb`.
  void operator()(CountTile t, TilePart part, std::size_t row_base = 0,
                  std::size_t col_base = 0) const {
    t.row_begin += row_base;
    t.col_begin += col_base;
    double* scratch = this->scratch();
    if (part == TilePart::kFull || t.col_begin + t.cols <= t.row_begin + 1) {
      tile_stats(stat_, ta_, tb_, t, TilePart::kFull,
                 {scratch, t.cols, t.row_begin, t.col_begin});
      visit_(LdTile{t.row_begin, t.col_begin, t.rows, t.cols, scratch,
                    t.cols});
      return;
    }
    // The span covers the interleaved visits too — fragment rows are tiny.
    LDLA_TRACE_SPAN(kEpilogue);
    std::uint64_t rows_converted = 0;
    for (std::size_t i = 0; i < t.rows; ++i) {
      const std::size_t gi = t.row_begin + i;
      if (gi < t.col_begin) continue;
      const std::size_t width =
          std::min(t.col_begin + t.cols, gi + 1) - t.col_begin;
      stat_row(stat_, ta_, gi, tb_, t.col_begin, t.row(i), width, scratch);
      ++rows_converted;
      visit_(LdTile{gi, t.col_begin, 1, width, scratch, width});
    }
    LDLA_TRACE_ADD_EPILOGUE_ROWS(rows_converted);
  }

 private:
  double* scratch() const {
    if (team_ == 1) return own_.data();
    thread_local AlignedBuffer<double> buf;
    if (buf.size() < scratch_n_) buf = AlignedBuffer<double>(scratch_n_);
    return buf.data();
  }

  LdStatistic stat_;
  const StatTables& ta_;
  const StatTables& tb_;
  const LdTileVisitor& visit_;
  unsigned team_;
  std::size_t scratch_n_;
  mutable AlignedBuffer<double> own_;  ///< a team of one's scratch
};

}  // namespace ldla::detail
