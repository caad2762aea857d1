// Internal: per-row LD statistic evaluation over a row of pair counts, the
// one stat epilogue every LD driver hands its count tiles to, the dense
// driver bodies built on it (matrix, cross matrix, scan), whose row
// conversion is a parameter, and the one dispatch on the LdOperand kinds
// that picks it: the LD statistics, or the per-pair statistic of missing
// data and genotype LD. Tanimoto and Zaykin's T pass their own.
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
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <limits>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/bit_matrix.hpp"
#include "core/detail/mirror.hpp"
#include "core/gemm/macro.hpp"
#include "core/gemm/syrk.hpp"
#include "core/ld.hpp"
#include "core/missing.hpp"
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

/// Tables from per-SNP derived counts. The shard store persists pack-time
/// popcounts, so the streaming drivers never touch the bit matrix; the
/// in-memory drivers pass the matrix's counts through the same arithmetic,
/// which keeps streamed statistics bit-identical to theirs.
inline StatTables make_stat_tables_from_counts(
    std::vector<std::uint64_t> counts, std::uint64_t nseq) {
  StatTables t;
  t.nseq = nseq;
  t.n = static_cast<double>(nseq);
  t.p.resize(counts.size());
  t.inv.resize(counts.size());
  for (std::size_t s = 0; s < counts.size(); ++s) {
    const double p = static_cast<double>(counts[s]) / t.n;
    t.p[s] = p;
    t.inv[s] = 1.0 / (p * (1.0 - p));
  }
  t.c = std::move(counts);
  return t;
}

inline StatTables make_stat_tables(const BitMatrix& g) {
  std::vector<std::uint64_t> counts(g.snps());
  for (std::size_t s = 0; s < g.snps(); ++s) counts[s] = g.derived_count(s);
  return make_stat_tables_from_counts(std::move(counts), g.samples());
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

/// The LD row conversion: statistic row `i` of count tile `t` (rows of
/// `ta`, columns of `tb`) over the tile's first `cols` columns, into
/// out[0, cols). The epilogue below takes any functor with this call
/// signature; the Tanimoto and two-plane drivers pass their own.
struct StatRows {
  LdStatistic stat;
  const StatTables& ta;
  const StatTables& tb;

  void operator()(const CountTile& t, std::size_t i, std::size_t cols,
                  double* out) const {
    stat_row(stat, ta, t.row_begin + i, tb, t.col_begin, t.row(i), cols, out);
  }
};

/// Convert the selected part of count tile `t` (global indices) into `dst`
/// with row conversion `row`. Distinct tiles write disjoint parts of the
/// window, so concurrent team members may share one window.
template <typename RowFn>
void tile_stats(const CountTile& t, TilePart part, const StatWindow& dst,
                const RowFn& row) {
  LDLA_TRACE_SPAN(kEpilogue);
  std::uint64_t rows_converted = 0;
  for (std::size_t i = 0; i < t.rows; ++i) {
    const std::size_t gi = t.row_begin + i;
    std::size_t width = t.cols;
    if (part == TilePart::kLower) {
      if (gi < t.col_begin) continue;
      width = std::min(t.col_begin + t.cols, gi + 1) - t.col_begin;
    }
    row(t, i, width,
        dst.data + (gi - dst.row0) * dst.ld + (t.col_begin - dst.col0));
    ++rows_converted;
  }
  LDLA_TRACE_ADD_EPILOGUE_ROWS(rows_converted);
}

/// The one stat-tile emitter behind every streaming LD driver (ld_stat_scan,
/// ld_cross_stat_scan, ld_matrix_stream, ld_cross_stream): it rebases each
/// count tile to global SNP indices, converts the selected part with the
/// row conversion `RowFn` (StatRows, or a two-plane kind's PairRows) and
/// hands it to the visitor. A full tile, or
/// a SYRK tile wholly on/below the diagonal, goes out as one LdTile; a
/// diagonal-crossing SYRK tile goes out as one-row fragments holding only
/// each row's canonical prefix, so no entry above the diagonal ever
/// escapes.
///
/// Scratch is per team member and bounded by one cache tile of the plan
/// that produces the tiles: a team of one converts into a buffer the
/// emitter owns; any other team calls the emitter concurrently, and each
/// member converts into its own thread-local buffer, grown once and reused
/// for the life of its thread.
template <typename RowFn>
class StatTileEmitter {
 public:
  /// Tiles come from `plan` over at most `rows` x `cols` SNP pairs; `team`
  /// is the size handed to the tile driver (0 = default_thread_count()).
  StatTileEmitter(RowFn row, const GemmPlan& plan, std::size_t rows,
                  std::size_t cols, unsigned team, const LdTileVisitor& visit)
      : row_(std::move(row)),
        visit_(visit),
        team_(team),
        scratch_n_(std::min(plan.mc, rows) * std::min(plan.nc, cols)),
        own_(team == 1 ? scratch_n_ : 0) {}

  /// Emit the selected part of `t`, whose indices are local to operands
  /// starting at global row `row_base` and column `col_base`.
  void operator()(CountTile t, TilePart part, std::size_t row_base = 0,
                  std::size_t col_base = 0) const {
    t.row_begin += row_base;
    t.col_begin += col_base;
    double* scratch = this->scratch();
    if (part == TilePart::kFull || t.col_begin + t.cols <= t.row_begin + 1) {
      tile_stats(t, TilePart::kFull,
                 {scratch, t.cols, t.row_begin, t.col_begin}, row_);
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
      row_(t, i, width, scratch);
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

  RowFn row_;
  const LdTileVisitor& visit_;
  unsigned team_;
  std::size_t scratch_n_;
  mutable AlignedBuffer<double> own_;  ///< a team of one's scratch
};

// ---- the dense driver bodies ----------------------------------------------
//
// The matrix bodies build their output through LdOutput: every element is
// written once from the team, so the matrix is not zero-filled and each
// page is first touched by the member that writes it. Checked builds fill
// it with a signalling-NaN pattern no statistic can produce (stat
// arithmetic only ever yields quiet NaNs) and assert on return that no
// element kept it.
//
// `Unit` is the number of operand rows per SNP: 1, 2 for the two-plane
// drivers (rows 2i and 2i+1 hold SNP i's planes a_i and b_i), or 4 for
// Zaykin's T (rows 4i..4i+3 hold SNP i's nucleotide planes). Every tile edge
// is a multiple of kTileEdgeRows (gemm/config.hpp), so tiles hold whole
// Unit x Unit plane blocks of each SNP pair.

/// Count tile `t` in SNP indices. For Unit > 1, `ld` spans all count rows
/// of a SNP row: row(i) holds plane 0's products, plane p's start p·ld/Unit
/// words on, and column j's plane q product sits at offset Unit·j + q.
template <std::size_t Unit>
CountTile snp_tile(const CountTile& t) {
  static_assert(Unit == 1 || Unit == 2 || Unit == 4,
                "tile edges are multiples of kTileEdgeRows rows");
  if constexpr (Unit == 1) return t;
  LDLA_ASSERT_MSG(t.row_begin % Unit == 0 && t.rows % Unit == 0 &&
                      t.col_begin % Unit == 0 && t.cols % Unit == 0,
                  "count tile edge splits a per-SNP plane block");
  return {t.row_begin / Unit, t.col_begin / Unit, t.rows / Unit,
          t.cols / Unit,      t.counts,           Unit * t.ld};
}

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

/// Symmetric body: each SYRK tile of `packed` writes its canonical
/// statistics into the square result, then copies the strictly-lower ones
/// onto their transposes while hot. Every strictly-lower pair lies in one
/// tile, so each element is written once, by the member owning the tile.
/// Every row conversion is bitwise symmetric in (i, j) (operands combine
/// only through commutative products, integer sums and min), so this equals
/// statistics of mirrored counts bit for bit.
template <std::size_t Unit, typename RowFn>
LdMatrix symmetric_stats(const PackedBitMatrix& packed, const RowFn& row,
                         unsigned team = 1) {
  const std::size_t n = packed.snps() / Unit;
  LdMatrix out = LdOutput::make(n, n);
  syrk_count_fused(
      packed, 0, packed.snps(),
      [&](const CountTile& t) {
        const CountTile s = snp_tile<Unit>(t);
        tile_stats(s, TilePart::kLower, {out.data(), out.cols()}, row);
        LDLA_TRACE_SPAN(kEpilogue);
        mirror_lower_window(out.data(), out.cols(), s.row_begin,
                            s.row_begin + s.rows, s.col_begin,
                            s.col_begin + s.cols);
      },
      team);
  LdOutput::check_written(out);
  return out;
}

/// Cross body: the statistic of every (SNP of pa, SNP of pb) pair.
template <std::size_t Unit, typename RowFn>
LdMatrix cross_stats(const PackedBitMatrix& pa, const PackedBitMatrix& pb,
                     const RowFn& row, unsigned team = 1) {
  LdMatrix out = LdOutput::make(pa.snps() / Unit, pb.snps() / Unit);
  gemm_count_fused(
      pa, 0, pa.snps(), pb, 0, pb.snps(),
      [&](const CountTile& t) {
        tile_stats(snp_tile<Unit>(t), TilePart::kFull,
                   {out.data(), out.cols()}, row);
      },
      team);
  LdOutput::check_written(out);
  return out;
}

/// Scan body: the canonical statistics of `packed`, through one emitter.
template <std::size_t Unit, typename RowFn>
void symmetric_scan(const PackedBitMatrix& packed, RowFn row,
                    const LdTileVisitor& visit, unsigned team = 1) {
  const std::size_t n = packed.snps() / Unit;
  const StatTileEmitter emit(std::move(row), packed.plan(), n, n, team,
                             visit);
  syrk_count_fused(
      packed, 0, packed.snps(),
      [&](const CountTile& t) { emit(snp_tile<Unit>(t), TilePart::kLower); },
      team);
}

// ---- several planes per SNP ------------------------------------------------

/// Row N·i + p of the result is row i of planes[p] (N = planes.size()).
inline BitMatrix interleave_rows(
    std::initializer_list<std::reference_wrapper<const BitMatrix>> planes) {
  const BitMatrix& first = *planes.begin();
  const std::size_t units = planes.size();
  BitMatrix out =
      BitMatrix::uninitialized(units * first.snps(), first.samples());
  for ([[maybe_unused]] const BitMatrix& plane : planes) {
    LDLA_ASSERT(plane.snps() == first.snps() &&
                plane.samples() == first.samples());
  }
  const std::size_t bytes = first.stride_words() * sizeof(std::uint64_t);
  std::size_t row = 0;
  for (std::size_t i = 0; i < first.snps(); ++i) {
    for (const BitMatrix& plane : planes) {
      std::memcpy(out.row_data(row++), plane.row_data(i), bytes);
    }
  }
  return out;
}

/// The plane products of SNP pair (i, j): ab = a_i·b_j, ba = b_i·a_j.
struct PairCounts {
  std::uint32_t aa, ab, ba, bb;
};

/// Row conversion of a Unit 2 tile: out[j] = pair(gi, gj, counts) for the
/// global SNP indices of row i and column j.
template <typename PairFn>
struct PairRows {
  PairFn pair;
  bool symmetric;  ///< both sides are one panel (SYRK tiles)

  void operator()(const CountTile& t, std::size_t i, std::size_t cols,
                  double* out) const {
    const std::size_t gi = t.row_begin + i;
    const std::uint32_t* ra = t.row(i);       // a_i against a_j, b_j
    const std::uint32_t* rb = ra + t.ld / 2;  // b_i against a_j, b_j
    for (std::size_t j = 0; j < cols; ++j) {
      const std::size_t gj = t.col_begin + j;
      // A diagonal pair's a_i·b_i lies above the count diagonal, which SYRK
      // tiles leave unspecified; b_i·a_i is the same product.
      const std::uint32_t ab =
          symmetric && gj == gi ? rb[2 * j] : ra[2 * j + 1];
      out[j] = pair(gi, gj, PairCounts{ra[2 * j], ab, rb[2 * j],
                                       rb[2 * j + 1]});
    }
  }
};

// ---- the operand kinds -----------------------------------------------------

/// Pearson r² of two dosage vectors from pair-separable moments: the
/// arithmetic of the pairwise baseline (baselines/plink_like.cpp), so the
/// two agree exactly on complete data.
inline double dosage_r2(const LdOperand::Dosages::Moments& mi,
                        const LdOperand::Dosages::Moments& mj, double sum_xy,
                        double n) {
  const double cov = n * sum_xy - mi.sum * mj.sum;
  const double var_i = n * mi.sum_sq - mi.sum * mi.sum;
  const double var_j = n * mj.sum_sq - mj.sum * mj.sum;
  const double denom = var_i * var_j;
  if (denom <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  const double r2 = (cov * cov) / denom;
  return r2 > 1.0 ? 1.0 : r2;
}

/// The Unit of operand kind `Kind`, as visit_rows hands it to its body.
template <typename Kind>
using UnitOf = std::integral_constant<std::size_t, Kind::kUnit>;

template <typename... Fn>
struct Overloaded : Fn... {
  using Fn::operator()...;
};

/// The one dispatch of every LD driver on its operands' kind, once per
/// call: `body(unit, row)` runs with the kind's Unit (UnitOf, a constant
/// the body passes on to the driver bodies) and the row conversion of rows
/// of `a` against columns of `b`. A self product passes one operand twice.
/// Operands of two kinds, and a genotype operand with a statistic other
/// than r^2, throw ContractViolation before any work starts.
///
/// The two-plane kinds' pair block of SNPs (i, j) is [[a_i·a_j, a_i·b_j],
/// [b_i·a_j, b_i·b_j]] (PairCounts). Missing data (a = x, b = c) reads the
/// haplotype count, both masked marginals and the valid-pair count from
/// it; genotypes (a = l, b = h) read sum_xy = LL + 2·LH + 2·HL + 4·HH.
template <typename Body>
void visit_rows(const LdOperand& a, const LdOperand& b, LdStatistic stat,
                const Body& body) {
  const bool self = &a == &b;
  std::visit(
      Overloaded{
          [&](const LdOperand::Haplotypes&, const LdOperand::Haplotypes&) {
            const StatTables ta = make_stat_tables(a.rows());
            if (self) {
              body(UnitOf<LdOperand::Haplotypes>{}, StatRows{stat, ta, ta});
            } else {
              const StatTables tb = make_stat_tables(b.rows());
              body(UnitOf<LdOperand::Haplotypes>{}, StatRows{stat, ta, tb});
            }
          },
          [&](const LdOperand::Masked&, const LdOperand::Masked&) {
            const auto pair = [stat](std::size_t, std::size_t,
                                     const PairCounts& c) {
              return ld_value_missing(stat, c.ab, c.ba, c.aa, c.bb);
            };
            body(UnitOf<LdOperand::Masked>{},
                 PairRows<decltype(pair)>{pair, self});
          },
          [&](const LdOperand::Dosages& k, const LdOperand::Dosages& kb) {
            LDLA_EXPECT(stat == LdStatistic::kRSquared,
                        "genotype LD computes r^2 only");
            const double n = static_cast<double>(a.rows().samples());
            const auto pair = [&k, &kb, n](std::size_t i, std::size_t j,
                                           const PairCounts& c) {
              const double sum_xy = static_cast<double>(c.aa) +
                                    2.0 * static_cast<double>(c.ab) +
                                    2.0 * static_cast<double>(c.ba) +
                                    4.0 * static_cast<double>(c.bb);
              return dosage_r2(k.moments[i], kb.moments[j], sum_xy, n);
            };
            body(UnitOf<LdOperand::Dosages>{},
                 PairRows<decltype(pair)>{pair, self});
          },
          [](const auto&, const auto&) {
            LDLA_EXPECT(false, "cross-matrix LD needs operands of one kind");
          }},
      a.kind(), b.kind());
}

}  // namespace ldla::detail
