#include "core/gemm/macro.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <numeric>
#include <vector>

#include "core/gemm/kernel.hpp"
#include "core/gemm/sparse_kernel.hpp"
#include "core/gemm/syrk.hpp"
#include "core/gemm/tune_cache.hpp"
#include "util/aligned_buffer.hpp"
#include "util/contract.hpp"
#include "util/partition.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"
#include "util/work_steal.hpp"

namespace ldla {

namespace {

// ---- The tile nest ----------------------------------------------------------
//
// One enumerator serves both fused drivers. It walks the cache-tile grid
// jc -> ic -> column chunks of width q and runs one tile body per chunk.
// Two parameters vary, never the loops themselves:
//  - the shape (Shape): the full rectangle, or a band of a same-operand
//    call — the pairs (i, j) with 0 <= i - j <= width. The lower triangle
//    is the unbounded band. Under a band every route walks only the
//    register tiles that meet it (loop bounds from rows_meeting and
//    cols_meeting, no test per register tile), the enumerator drops
//    chunks that miss it, and a panel's row blocks start at the block
//    holding its diagonal. The shape is a compile-time parameter;
//    the rectangle compiles without any of this;
//  - the team size: a team of one runs whole mc x nc cache tiles inline
//    (q = tile width, no chunk list, no pool); a larger team cuts every
//    panel into chunk_quantum()-wide chunks and drains them through
//    per-member work-stealing deques on global_pool().
// Chunks keep the register-tile grid of the inline walk, so every element
// gets the same arithmetic at any team size and the kernel-call, kernel-word
// and sparse counters are the same; only the tile granularity differs.

enum class Shape { kRect, kBand };

/// Operands, clamp window and blocking of one nest call. ic0/jc0 snap the
/// window start down to the sliver grid, the pad ends round its end up.
/// For a band `b` is `a`, the column window ends with the row window, and
/// `width` bounds i - j in operand rows (kUnboundedBand: the triangle).
struct TileGrid {
  const PackedBitMatrix& a;
  const PackedBitMatrix& b;
  const SampleMajor& a_sm;  ///< what B's lists gather against
  const SampleMajor& b_sm;  ///< what A's lists gather against
  const KernelInfo& kern;
  std::size_t mr, nr, mc, nc;
  std::size_t a_begin, a_end, b_begin, b_end;
  std::size_t ic0, jc0, a_pad_end, b_pad_end;
  std::size_t width;

  TileGrid(const PackedBitMatrix& pa, const SampleMajor& sa, std::size_t a0,
           std::size_t a1, const PackedBitMatrix& pb, const SampleMajor& sb,
           std::size_t b0, std::size_t b1,
           std::size_t band_width = kUnboundedBand)
      : a(pa), b(pb), a_sm(sa), b_sm(sb), kern(kernel_for_plan(pa.plan())),
        mr(pa.plan().mr), nr(pa.plan().nr), mc(pa.plan().mc),
        nc(pa.plan().nc), a_begin(a0), a_end(a1), b_begin(b0), b_end(b1),
        ic0(a0 / mr * mr), jc0(b0 / nr * nr),
        a_pad_end((a1 + mr - 1) / mr * mr),
        b_pad_end((b1 + nr - 1) / nr * nr), width(band_width) {}

  /// The last row within the band of column `c` (saturating).
  std::size_t band_reach(std::size_t c) const {
    return width > kUnboundedBand - c ? kUnboundedBand : c + width;
  }
};

/// Local offsets [begin, end) of a sweep's register tiles.
struct Span {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The `step`-wide slivers of [base, base + extent) (extent a multiple of
/// step) whose last index is >= `first` and whose first index is <= `last`.
Span slivers_between(std::size_t base, std::size_t step, std::size_t extent,
                     std::size_t first, std::size_t last) {
  const std::size_t begin =
      first < base + step ? 0 : ((first - base - step) / step + 1) * step;
  if (last < base) return {begin, 0};
  const std::size_t n = (last - base) / step;  // the sliver holding `last`
  return {begin, n < extent / step ? (n + 1) * step : extent};
}

/// The row slivers of the chunk rows [ic, ic + rows) that meet the shape
/// beside the column sliver starting at global column `c`: under a band,
/// those not wholly above the diagonal and not wholly beyond its edge.
template <Shape S>
Span rows_meeting(const TileGrid& g, std::size_t ic, std::size_t rows,
                  std::size_t c) {
  if constexpr (S == Shape::kRect) return {0, rows};
  return slivers_between(ic, g.mr, rows, c, g.band_reach(c + g.nr - 1));
}

/// The column slivers of the chunk columns [jc, jc + cols) that meet the
/// shape beside the row sliver starting at global row `r`.
template <Shape S>
Span cols_meeting(const TileGrid& g, std::size_t jc, std::size_t cols,
                  std::size_t r) {
  if constexpr (S == Shape::kRect) return {0, cols};
  return slivers_between(jc, g.nr, cols, r > g.width ? r - g.width : 0,
                         r + g.mr - 1);
}

/// One unit of work: the row block [ic, ic_end) of one jc panel crossed
/// with its column slice [c0, c1). Boundaries sit on the sliver grid (or
/// the padded range end), so chunks compose the register-tile grid the
/// inline walk sweeps.
struct TileChunk {
  std::size_t ic = 0;
  std::size_t ic_end = 0;
  std::size_t c0 = 0;
  std::size_t c1 = 0;
};

/// The tile body: zero the chunk's scratch, accumulate every kc panel into
/// it, clamp it to the caller's window and hand it to the sink. Under a
/// band, every pass walks only the register tiles that meet it; the
/// zeroed scratch makes the others read as deterministic zeros inside the
/// emitted tile. `scratch` holds (ic_end - ic) rows of `scratch_ld`.
template <Shape S>
void run_tile(const TileGrid& g, const TileChunk& ch, std::uint32_t* scratch,
              std::size_t scratch_ld, detail::ListIndex& ix,
              const CountTileSink& sink) {
  const PackedBitMatrix& a = g.a;
  const PackedBitMatrix& b = g.b;
  const std::size_t mr = g.mr;
  const std::size_t nr = g.nr;
  const std::size_t ic = ch.ic;
  const std::size_t jc = ch.c0;
  const std::size_t tile_rows = ch.ic_end - ic;
  const std::size_t tile_cols = ch.c1 - jc;
  const auto rows_of = [&](std::size_t jr) {
    return rows_meeting<S>(g, ic, tile_rows, jc + jr);
  };
  const auto cols_of = [&](std::size_t ir) {
    return cols_meeting<S>(g, jc, tile_cols, ic + ir);
  };
  for (std::size_t i = 0; i < tile_rows; ++i) {
    std::memset(&scratch[i * scratch_ld], 0,
                tile_cols * sizeof(std::uint32_t));
  }

  // All rank-kc updates for this tile before moving on: the tile is final
  // when the panel loop ends. When either pack carries all-sparse slivers
  // the register tiles split three ways: list×list pairs go to the
  // chunk-local sparse product, list×dense pairs to the gather, and
  // dense×dense pairs keep the micro-kernel panel walk — same scratch,
  // same integer counts, so the emitted CountTile is bit-identical either
  // way. An all-sparse sliver has no dense words, so the walk never reads
  // it.
  const bool hybrid = a.hybrid_dispatch() || b.hybrid_dispatch();
  {
    LDLA_TRACE_SPAN(kKernel);
    std::uint64_t tile_calls = 0;
    std::uint64_t tile_words = 0;
    for (std::size_t p = 0; p < a.panels(); ++p) {
      const std::size_t kcp = a.panel_kc_padded(p);
      const PackedPanelView b_panel = b.b_panel(p, jc / nr, tile_cols / nr);
      const PackedPanelView a_panel = a.a_panel(p, ic / mr, tile_rows / mr);
      for (std::size_t jr = 0; jr < tile_cols; jr += nr) {
        if (hybrid && b.b_sliver_sparse((jc + jr) / nr)) continue;
        const std::uint64_t* bp = b_panel.sliver(jr / nr);
        const Span rows = rows_of(jr);
        for (std::size_t ir = rows.begin; ir < rows.end; ir += mr) {
          if (hybrid && a.a_sliver_sparse((ic + ir) / mr)) continue;
          const std::uint64_t* ap = a_panel.sliver(ir / mr);
          LDLA_ASSERT_ALIGNED(ap, 8);
          LDLA_ASSERT_ALIGNED(bp, 8);
          g.kern.fn(kcp, ap, bp, &scratch[ir * scratch_ld + jr], scratch_ld);
          ++tile_calls;
          tile_words += static_cast<std::uint64_t>(mr * nr) * kcp;
        }
      }
    }
    LDLA_TRACE_ADD_KERNEL(tile_calls, tile_words);
    if (hybrid) {
      detail::SparseTileCounters tc;
      detail::list_list_chunk(a, b, ic, tile_rows, jc, tile_cols, rows_of,
                              scratch, scratch_ld, ix, tc);
      // The list×dense gathers. Pass 1 (jr outer) gathers each sparse jr
      // list against A's transpose, the list hot across the ir sweep. Pass 2
      // (ir outer) gathers the ir lists against B's transpose; with jr
      // innermost, each sample's transpose row lines serve every dense jr
      // column of the tile, so only the first jr tile misses.
      for (std::size_t jr = 0; jr < tile_cols; jr += nr) {
        if (!b.b_sliver_sparse((jc + jr) / nr)) continue;
        const Span rows = rows_of(jr);
        for (std::size_t ir = rows.begin; ir < rows.end; ir += mr) {
          if (a.a_sliver_sparse((ic + ir) / mr)) continue;
          detail::sparse_register_tile(a, b, g.a_sm, false, ic + ir, jc + jr,
                                       mr, nr, &scratch[ir * scratch_ld + jr],
                                       scratch_ld, tc);
        }
      }
      for (std::size_t ir = 0; ir < tile_rows; ir += mr) {
        if (!a.a_sliver_sparse((ic + ir) / mr)) continue;
        const Span cols = cols_of(ir);
        for (std::size_t jr = cols.begin; jr < cols.end; jr += nr) {
          if (b.b_sliver_sparse((jc + jr) / nr)) continue;
          detail::sparse_register_tile(a, b, g.b_sm, true, ic + ir, jc + jr,
                                       mr, nr, &scratch[ir * scratch_ld + jr],
                                       scratch_ld, tc);
        }
      }
      LDLA_TRACE_ADD_SPARSE(tc.ll_tiles, tc.ld_tiles, tc.intersections);
    }
  }

  const std::size_t i_lo = std::max(ic, g.a_begin);
  const std::size_t i_hi = std::min(ch.ic_end, g.a_end);
  const std::size_t j_lo = std::max(jc, g.b_begin);
  const std::size_t j_hi = std::min(ch.c1, g.b_end);
  LDLA_TRACE_ADD_TILE();
  sink(CountTile{i_lo, j_lo, i_hi - i_lo, j_hi - j_lo,
                 &scratch[(i_lo - ic) * scratch_ld + (j_lo - jc)],
                 scratch_ld});
}

/// The enumerator: jc (nc) -> ic (mc) -> column chunks of width q. A band
/// starts each panel at the mc block holding its diagonal and drops chunks
/// wholly above the diagonal (ic_end <= c0) or wholly beyond its edge (the
/// chunk's first row lies past the band of its last column): every
/// register tile in them would be skipped, so the saving survives a chunk
/// grid finer than the cache tiles.
template <Shape S, typename Visit>
void for_each_chunk(const TileGrid& g, std::size_t q, const Visit& visit) {
  const std::size_t mc = g.mc;
  const std::size_t nc = g.nc;
  for (std::size_t jc = g.jc0; jc < g.b_end; jc += nc) {
    const std::size_t jc_end = std::min(jc + nc, g.b_pad_end);
    std::size_t ic = g.ic0;
    if (S == Shape::kBand && jc > g.ic0) ic += (jc - g.ic0) / mc * mc;
    for (; ic < g.a_end; ic += mc) {
      const std::size_t ic_end = std::min(ic + mc, g.a_pad_end);
      for (std::size_t c0 = jc; c0 < jc_end; c0 += q) {
        const std::size_t c1 = std::min(c0 + q, jc_end);
        if (S == Shape::kBand && (ic_end <= c0 || ic > g.band_reach(c1 - 1))) {
          continue;
        }
        visit(TileChunk{ic, ic_end, c0, c1});
      }
    }
  }
}

/// Column quantum for chunking a jc panel: wide enough to amortize the
/// deque traffic and keep B slivers streaming, narrow enough that every
/// panel yields ~8 chunks per team member to steal from. Always a multiple
/// of lcm(nr, kTileEdgeRows), so chunk boundaries stay on the packed
/// sliver grid and never split a multi-plane driver's per-SNP rows.
std::size_t chunk_quantum(std::size_t total_cols, std::size_t nr,
                          std::size_t nc, std::size_t team) {
  const std::size_t unit = std::lcm(nr, kTileEdgeRows);
  const std::size_t target =
      total_cols / std::max<std::size_t>(1, team * 8);
  std::size_t q = std::max(unit, (target + unit - 1) / unit * unit);
  q = std::min(q, std::min(nc, (total_cols + unit - 1) / unit * unit));
  return std::max(q, unit);
}

/// Drain the team's chunk deques from member `t`'s seat: LIFO-pop the own
/// block (ascending chunk order — the seed pushed it reversed), then sweep
/// the other members FIFO-stealing from the far end of their blocks until a
/// full pass over every deque finds nothing left. Chunks are never
/// re-enqueued, so an all-empty sweep is a sound termination proof.
template <typename RunChunk>
void drain_chunks(std::deque<WorkStealDeque<std::int64_t>>& deques,
                  std::size_t t, const RunChunk& run) {
  std::int64_t idx = 0;
  while (deques[t].pop(idx)) {
    run(idx);
  }
  const std::size_t team = deques.size();
  for (;;) {
    for (std::size_t s = 1; s < team; ++s) {
      WorkStealDeque<std::int64_t>& victim = deques[(t + s) % team];
      while (!victim.empty_hint()) {
        if (victim.steal(idx)) {
          LDLA_TRACE_ADD_NEST_STEAL();
          run(idx);
        } else {
          // Lost the CAS race (or the owner drained it under us): someone
          // else made progress, so spinning here cannot livelock.
          LDLA_TRACE_ADD_NEST_FAILED_STEAL();
        }
      }
    }
    bool all_empty = true;
    for (std::size_t s = 1; s < team && all_empty; ++s) {
      all_empty = deques[(t + s) % team].empty_hint();
    }
    if (all_empty) break;
  }
}

/// Run `chunks` on a team of `team` members: seed per-member deques with
/// contiguous blocks (pushed in reverse so the owner pops in ascending,
/// jc-major order while thieves bite off the far end), then let each member
/// drain through its own q-wide scratch. The sink is called concurrently.
template <Shape S>
void run_team(const TileGrid& g, const std::vector<TileChunk>& chunks,
              std::size_t team, std::size_t q, const CountTileSink& sink) {
  const std::vector<Range> blocks = split_uniform(chunks.size(), team);
  std::size_t max_block = 0;
  for (const Range& r : blocks) max_block = std::max(max_block, r.size());
  std::deque<WorkStealDeque<std::int64_t>> deques;
  for (std::size_t t = 0; t < blocks.size(); ++t) {
    deques.emplace_back(max_block);
    for (std::size_t i = blocks[t].end; i > blocks[t].begin; --i) {
      deques.back().push(static_cast<std::int64_t>(i - 1));
    }
  }
  const std::size_t scratch_rows = std::min(g.mc, g.a_pad_end - g.ic0);
  // The pre-launch pushes happen-before every task body: run_tasks
  // publishes through the pool's own release/acquire deque+cv protocol.
  global_pool().run_tasks(blocks.size(), [&](std::size_t t) {
    AlignedBuffer<std::uint32_t> scratch(scratch_rows * q);
    detail::ListIndex ix;
    drain_chunks(deques, t, [&](std::int64_t idx) {
      run_tile<S>(g, chunks[static_cast<std::size_t>(idx)], scratch.data(),
                  q, ix, sink);
    });
  });
}

/// Both fused drivers end here, with validated, non-empty windows.
template <Shape S>
void run_nest(const TileGrid& g, const CountTileSink& sink,
              unsigned threads) {
  if (threads == 0) threads = default_thread_count();
  if (threads > 1) {
    const std::size_t q =
        chunk_quantum(g.b_pad_end - g.jc0, g.nr, g.nc, threads);
    std::vector<TileChunk> chunks;
    for_each_chunk<S>(g, q, [&](const TileChunk& ch) { chunks.push_back(ch); });
    const std::size_t team = std::min<std::size_t>(threads, chunks.size());
    if (team > 1) {
      run_team<S>(g, chunks, team, q, sink);
      return;
    }
  }
  // Team of one (or a problem with a single chunk): whole cache tiles,
  // inline, through one tile-local scratch. Every micro-kernel writes full
  // slivers, so no edge temporary is needed.
  const std::size_t q = std::min(g.nc, g.b_pad_end - g.jc0);
  AlignedBuffer<std::uint32_t> scratch(
      std::min(g.mc, g.a_pad_end - g.ic0) * q);
  detail::ListIndex ix;
  for_each_chunk<S>(g, q, [&](const TileChunk& ch) {
    run_tile<S>(g, ch, scratch.data(), q, ix, sink);
  });
}

}  // namespace

GemmPlan gemm_plan_for(const BitMatrixView& a, const GemmConfig& cfg) {
  return resolve_plan(cfg, a.n_words);
}

void gemm_count_fused(const PackedBitMatrix& a, std::size_t a_begin,
                      std::size_t a_end, const PackedBitMatrix& b,
                      std::size_t b_begin, std::size_t b_end,
                      const CountTileSink& sink, unsigned threads) {
  LDLA_EXPECT(a_begin <= a_end && a_end <= a.snps(),
              "A row range out of range");
  LDLA_EXPECT(b_begin <= b_end && b_end <= b.snps(),
              "B row range out of range");
  LDLA_EXPECT(sink != nullptr, "fused driver needs a tile sink");
  if (a_begin == a_end || b_begin == b_end) return;
  LDLA_EXPECT(a.has_a_side(), "A operand was packed without an A side");
  LDLA_EXPECT(b.has_b_side(), "B operand was packed without a B side");
  const GemmPlan& plan = a.plan();
  const GemmPlan& bplan = b.plan();
  LDLA_EXPECT(plan.arch == bplan.arch && plan.mr == bplan.mr &&
                  plan.nr == bplan.nr && plan.ku == bplan.ku &&
                  a.kc_words() == b.kc_words() &&
                  a.words_per_snp() == b.words_per_snp(),
              "packed operands were built for incompatible plans");
  // A list×dense tile gathers against the dense side's transpose. A pack
  // that classified nothing sparse carries none, so when its partner has
  // all-sparse slivers it gets one here, once per call, from its slivers.
  const auto transpose_for = [](const PackedBitMatrix& dense_side,
                                const PackedBitMatrix& list_side,
                                SampleMajor& built) -> const SampleMajor& {
    if (dense_side.has_sample_major() || !list_side.hybrid_dispatch()) {
      return dense_side.sample_major();
    }
    built = sample_major_from_slivers(dense_side);
    return built;
  };
  SampleMajor a_built;
  SampleMajor b_built;
  run_nest<Shape::kRect>(
      TileGrid(a, transpose_for(a, b, a_built), a_begin, a_end, b,
               transpose_for(b, a, b_built), b_begin, b_end),
      sink, threads);
}

void syrk_count_fused(const PackedBitMatrix& a, std::size_t row_begin,
                      std::size_t row_end, const CountTileSink& sink,
                      unsigned threads, const SyrkBand& band) {
  LDLA_EXPECT(row_begin <= row_end && row_end <= a.snps(),
              "row range out of range");
  LDLA_EXPECT(band.col_lead <= row_begin, "band columns start before row 0");
  LDLA_EXPECT(sink != nullptr, "fused driver needs a tile sink");
  if (row_begin == row_end) return;
  LDLA_EXPECT(a.has_a_side() && a.has_b_side(),
              "symmetric driver needs both operand sides packed");
  // One pack on both sides: an all-sparse sliver implies a sparse column,
  // which built the pack's transpose.
  run_nest<Shape::kBand>(TileGrid(a, a.sample_major(), row_begin, row_end, a,
                                  a.sample_major(), row_begin - band.col_lead,
                                  row_end, band.width),
                         sink, threads);
}

namespace {

/// Candidate variants for the joint tuner. A forced family restricts the
/// search to its own grid; kAuto searches every runnable variant except
/// the ablation-artifact families (strawman, swar), which exist to be
/// measured against, not to win.
std::vector<const KernelInfo*> tuner_candidates(const GemmConfig& base) {
  std::vector<const KernelInfo*> out;
  for (const KernelInfo* k : available_kernel_variants()) {
    if (base.arch != KernelArch::kAuto) {
      if (k->arch != base.arch) continue;
    } else if (k->arch == KernelArch::kStrawman ||
               k->arch == KernelArch::kSwar) {
      continue;
    }
    out.push_back(k);
  }
  return out;
}

}  // namespace

GemmConfig tune_gemm_config(const BitMatrixView& sample,
                            const GemmConfig& base) {
  GemmConfig best = base;
  if (sample.n_snps == 0 || sample.n_words == 0) return best;

  // A cached decision short-circuits the whole sweep — and, because a hit
  // writes nothing, back-to-back tuned runs leave the cache file
  // byte-identical. Only re-tunable configs participate: the tuner varies
  // exactly {variant, kc, mc}, so any of those forced means the caller
  // wants what it asked for.
  const bool cacheable = base.arch == KernelArch::kAuto && base.mr == 0 &&
                         base.nr == 0 && base.ku == 0 && base.kc_words == 0 &&
                         base.mc == 0;
  if (cacheable) {
    if (const auto hit = tune_cache_lookup(sample.n_words)) {
      const KernelInfo* k = find_kernel(hit->variant);
      if (k != nullptr && kernel_available(k->arch)) {
        best.arch = k->arch;
        best.mr = k->mr;
        best.nr = k->nr;
        best.ku = k->ku;
        best.kc_words = hit->kc_words;
        best.mc = hit->mc;
        return best;
      }
    }
  }

  // A problem-shaped probe: up to 128 rows of the sample against itself.
  // Each trial packs the probe once (both sides) and accumulates the full
  // probe x probe product into a count matrix.
  BitMatrixView probe = sample;
  probe.n_snps = std::min<std::size_t>(probe.n_snps, 128);
  CountMatrix c(probe.n_snps, probe.n_snps);

  const auto time_cfg = [&](const GemmConfig& cfg) {
    double fastest = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 2; ++rep) {
      c.zero();
      Timer t;
      const PackedBitMatrix p(probe, resolve_plan(cfg, probe.n_words),
                              PackSides::kBoth);
      gemm_count_fused(p, 0, p.snps(), p, 0, p.snps(),
                       [&](const CountTile& tile) {
                         for (std::size_t i = 0; i < tile.rows; ++i) {
                           std::uint32_t* dst =
                               &c(tile.row_begin + i, tile.col_begin);
                           for (std::size_t j = 0; j < tile.cols; ++j) {
                             dst[j] += tile.row(i)[j];
                           }
                         }
                       });
      fastest = std::min(fastest, t.seconds());
    }
    return fastest;
  };

  const auto variant_cfg = [&](const KernelInfo* k) {
    GemmConfig cfg = base;
    cfg.arch = k->arch;
    cfg.mr = k->mr;
    cfg.nr = k->nr;
    cfg.ku = k->ku;
    return cfg;
  };

  // Stage 1: rank every candidate variant at its default blocking and keep
  // the top few — blocking moves times by tens of percent, variant choice
  // by integer factors, so the survivors always contain the joint winner.
  struct Scored {
    const KernelInfo* k;
    double t;
  };
  std::vector<Scored> scored;
  for (const KernelInfo* k : tuner_candidates(base)) {
    scored.push_back({k, time_cfg(variant_cfg(k))});
  }
  if (scored.empty()) return best;
  std::sort(scored.begin(), scored.end(),
            [](const Scored& x, const Scored& y) { return x.t < y.t; });
  if (scored.size() > 4) scored.resize(4);

  // Stage 2: joint (variant × kc × mc) grid on the survivors.
  double best_time = std::numeric_limits<double>::infinity();
  for (const Scored& s : scored) {
    for (const std::size_t kc : {64u, 128u, 256u, 512u}) {
      for (const std::size_t mc : {32u, 64u, 128u, 256u}) {
        GemmConfig cfg = variant_cfg(s.k);
        cfg.kc_words = kc;
        cfg.mc = mc;
        const double t = time_cfg(cfg);
        if (t < best_time) {
          best_time = t;
          best = cfg;
        }
      }
    }
  }

  if (cacheable) {
    const KernelInfo* k = find_kernel(best.arch, best.mr, best.nr, best.ku);
    if (k != nullptr) {
      tune_cache_store(sample.n_words,
                       TuneCacheEntry{k->name, best.kc_words, best.mc});
    }
  }
  return best;
}

}  // namespace ldla
