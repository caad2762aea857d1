#include "core/gemm/nest.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/gemm/fused_tile.hpp"
#include "core/gemm/kernel.hpp"
#include "core/gemm/syrk.hpp"
#include "util/aligned_buffer.hpp"
#include "util/contract.hpp"
#include "util/partition.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"
#include "util/work_steal.hpp"

namespace ldla {

namespace {

/// One unit of stealable work: an mc-aligned row block crossed with a
/// q-column slice of one jc panel. Boundaries are register-tile aligned
/// (c0/c1 absolute multiples of nr or the padded range end; ic/ic_end the
/// same for mr/mc), so chunks compose the identical register-tile grid the
/// sequential fused drivers sweep. The MAF-adaptive sparse dispatch lives
/// inside the shared fused tile bodies, so sparse macro-tile chunks
/// schedule on these same deques with no extra chunk kinds: a stolen chunk
/// decides list-vs-dense per register tile exactly like the sequential
/// nest would, and dispatch depends only on the (sliver, sliver) pair —
/// never on chunk geometry — keeping counters chunking-invariant.
struct TileChunk {
  std::size_t ic = 0;
  std::size_t ic_end = 0;
  std::size_t c0 = 0;
  std::size_t c1 = 0;
};

/// Column quantum for chunking a jc panel: wide enough to amortize the
/// deque traffic and keep B slivers streaming, narrow enough that every
/// panel yields ~8 chunks per team member to steal from. Always a multiple
/// of nr so chunk boundaries stay on the packed sliver grid.
std::size_t chunk_quantum(std::size_t total_cols, std::size_t nr,
                          std::size_t nc, std::size_t team) {
  const std::size_t target =
      total_cols / std::max<std::size_t>(1, team * 8);
  std::size_t q = std::max(nr, (target + nr - 1) / nr * nr);
  q = std::min(q, std::min(nc, (total_cols + nr - 1) / nr * nr));
  return std::max<std::size_t>(q, nr);
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
          LDLA_TRACE_ADD_STEAL();
          run(idx);
        } else {
          // Lost the CAS race (or the owner drained it under us): someone
          // else made progress, so spinning here cannot livelock.
          LDLA_TRACE_ADD_FAILED_STEAL();
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

/// Seed per-member deques with contiguous blocks of [0, chunks) and run the
/// team on global_pool(). Blocks are pushed in reverse so the owner pops in
/// ascending order (jc-major locality) while thieves bite off the far end.
template <typename RunChunk>
void run_chunk_team(std::size_t chunks, std::size_t team,
                    const RunChunk& make_run) {
  const std::vector<Range> blocks = split_uniform(chunks, team);
  std::size_t max_block = 0;
  for (const Range& r : blocks) max_block = std::max(max_block, r.size());
  std::deque<WorkStealDeque<std::int64_t>> deques;
  for (std::size_t t = 0; t < blocks.size(); ++t) {
    deques.emplace_back(max_block);
    for (std::size_t i = blocks[t].end; i > blocks[t].begin; --i) {
      deques.back().push(static_cast<std::int64_t>(i - 1));
    }
  }
  // The pre-launch pushes happen-before every task body: run_tasks
  // publishes through the pool's own release/acquire deque+cv protocol.
  global_pool().run_tasks(blocks.size(), [&](std::size_t t) {
    make_run(t, [&](const auto& run) { drain_chunks(deques, t, run); });
  });
}

}  // namespace

void gemm_count_parallel_nest(const PackedBitMatrix& a, std::size_t a_begin,
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

  if (threads == 0) threads = default_thread_count();
  if (threads <= 1) {
    gemm_count_fused(a, a_begin, a_end, b, b_begin, b_end, sink);
    return;
  }

  const KernelInfo& kern = kernel_for_plan(plan);
  const std::size_t mr = plan.mr;
  const std::size_t nr = plan.nr;
  const std::size_t mc = plan.mc;
  const std::size_t nc = plan.nc;

  const std::size_t ic0 = a_begin / mr * mr;
  const std::size_t jc0 = b_begin / nr * nr;
  const std::size_t a_pad_end = (a_end + mr - 1) / mr * mr;
  const std::size_t b_pad_end = (b_end + nr - 1) / nr * nr;

  const std::size_t q = chunk_quantum(b_pad_end - jc0, nr, nc, threads);
  std::vector<TileChunk> chunks;
  for (std::size_t jc = jc0; jc < b_end; jc += nc) {
    const std::size_t jc_end = std::min(jc + nc, b_pad_end);
    for (std::size_t ic = ic0; ic < a_end; ic += mc) {
      const std::size_t ic_end = std::min(ic + mc, a_pad_end);
      for (std::size_t c0 = jc; c0 < jc_end; c0 += q) {
        chunks.push_back(
            TileChunk{ic, ic_end, c0, std::min(c0 + q, jc_end)});
      }
    }
  }

  const std::size_t team = std::min<std::size_t>(threads, chunks.size());
  if (team <= 1) {
    gemm_count_fused(a, a_begin, a_end, b, b_begin, b_end, sink);
    return;
  }

  const std::size_t scratch_rows = std::min(mc, a_pad_end - ic0);
  run_chunk_team(chunks.size(), team, [&](std::size_t, const auto& drain) {
    AlignedBuffer<std::uint32_t> scratch(scratch_rows * q);
    drain([&](std::int64_t idx) {
      const TileChunk& ch = chunks[static_cast<std::size_t>(idx)];
      detail::fused_gemm_tile(a, b, kern, mr, nr, ch.ic, ch.ic_end, ch.c0,
                              ch.c1, a_begin, a_end, b_begin, b_end,
                              scratch.data(), q, sink);
    });
  });
}

void syrk_count_parallel_nest(const PackedBitMatrix& a, std::size_t row_begin,
                              std::size_t row_end, const CountTileSink& sink,
                              unsigned threads) {
  LDLA_EXPECT(row_begin <= row_end && row_end <= a.snps(),
              "row range out of range");
  LDLA_EXPECT(sink != nullptr, "fused driver needs a tile sink");
  if (row_begin == row_end) return;
  LDLA_EXPECT(a.has_a_side() && a.has_b_side(),
              "symmetric driver needs both operand sides packed");

  if (threads == 0) threads = default_thread_count();
  if (threads <= 1) {
    syrk_count_fused(a, row_begin, row_end, sink);
    return;
  }

  const GemmPlan& plan = a.plan();
  const KernelInfo& kern = kernel_for_plan(plan);
  const std::size_t mr = plan.mr;
  const std::size_t nr = plan.nr;
  const std::size_t mc = plan.mc;
  const std::size_t nc = plan.nc;

  const std::size_t ic0 = row_begin / mr * mr;
  const std::size_t jc0 = row_begin / nr * nr;
  const std::size_t i_pad_end = (row_end + mr - 1) / mr * mr;
  const std::size_t j_pad_end = (row_end + nr - 1) / nr * nr;

  const std::size_t q = chunk_quantum(j_pad_end - jc0, nr, nc, threads);
  std::vector<TileChunk> chunks;
  for (std::size_t jc = jc0; jc < row_end; jc += nc) {
    const std::size_t jc_end = std::min(jc + nc, j_pad_end);
    std::size_t ic_start = ic0;
    if (jc > ic0) ic_start = ic0 + (jc - ic0) / mc * mc;
    for (std::size_t ic = ic_start; ic < row_end; ic += mc) {
      const std::size_t ic_end = std::min(ic + mc, i_pad_end);
      for (std::size_t c0 = jc; c0 < jc_end; c0 += q) {
        // A chunk wholly above the diagonal band holds only register tiles
        // the SYRK body would skip (ir + mr <= ic_end <= c0 <= jr): drop it
        // here so the triangle saving survives the finer chunk grid.
        if (ic_end <= c0) continue;
        chunks.push_back(
            TileChunk{ic, ic_end, c0, std::min(c0 + q, jc_end)});
      }
    }
  }

  const std::size_t team = std::min<std::size_t>(threads, chunks.size());
  if (team <= 1) {
    syrk_count_fused(a, row_begin, row_end, sink);
    return;
  }

  const std::size_t scratch_rows = std::min(mc, i_pad_end - ic0);
  run_chunk_team(chunks.size(), team, [&](std::size_t, const auto& drain) {
    AlignedBuffer<std::uint32_t> scratch(scratch_rows * q);
    drain([&](std::int64_t idx) {
      const TileChunk& ch = chunks[static_cast<std::size_t>(idx)];
      detail::fused_syrk_tile(a, kern, mr, nr, ch.ic, ch.ic_end, ch.c0,
                              ch.c1, row_begin, row_end, scratch.data(), q,
                              sink);
    });
  });
}

}  // namespace ldla
