// Out-of-core LD drivers over mmap'd shard stores (DESIGN.md §4.7).
//
// ld_matrix_stream walks the lower-triangular grid of shard pairs
// (ic, jc <= ic): the diagonal pair runs the fused SYRK over the shard's
// pack, off-diagonal pairs run the fused GEMM between the two packs, and
// every count tile is converted to the requested statistic with the SAME
// epilogue arithmetic as core/ld.cpp over GLOBAL StatTables built from the
// shards' persisted popcounts — so the streamed tiles are bit-identical to
// an all-in-RAM ld_stat_scan of the same matrix, config and arch; only the
// tile geometry differs.
//
// Overlap: with threads == 1 (default) each pair's compute runs as one of
// two tasks on the work-stealing global_pool() while the second task
// materializes the NEXT pair's shards (explicit page faults under the
// traced io phase) — compute of pair k hides the fetch of pair k+1, the
// classic double buffer. With threads > 1 the in-nest parallel drivers own
// the pool (nested run_tasks is forbidden), so prefetch degrades to an
// madvise(WILLNEED) hint: the kernel reads ahead but materialization lands
// on the critical path and is honestly counted as a prefetch_stall.
//
// Residency: peak store residency is bounded by StreamOptions::cache_bytes
// (shard payload bytes, the store's own accounting) via LRU eviction that
// pins the in-flight and next pairs; the scratch on top is O(mc·nc)
// doubles. cache_bytes must cover two pair working sets (4 shards: the
// current pair and the prefetched next one); larger budgets keep shards
// cached across the grid walk and turn repeat visits into prefetch_hits.
#pragma once

#include "core/ld.hpp"
#include "io/shard_store.hpp"

namespace ldla {

/// Options for the streaming drivers.
struct StreamOptions {
  LdStatistic stat = LdStatistic::kRSquared;

  /// Residency budget in payload bytes (ShardStore accounting); 0 means
  /// unlimited (every shard stays materialized once touched). When set, it
  /// must cover the floor documented above, which makes the peak-residency
  /// bound provable rather than best-effort.
  std::size_t cache_bytes = 0;

  /// 1 = sequential fused compute with the overlapped-io double buffer;
  /// > 1 (or 0 = default_thread_count()) = in-nest parallel drivers, with
  /// the visitor called CONCURRENTLY (tiles stay disjoint — a visitor
  /// writing disjoint output ranges needs no lock).
  unsigned threads = 1;
};

/// Stream the lower triangle (diagonal included) of the LD matrix of the
/// store's SNP panel to `visit`. Tiles partition the triangle; coordinates
/// are global SNP indices. Bit-identical to ld_stat_scan (see above).
void ld_matrix_stream(ShardStore& store, const LdTileVisitor& visit,
                      const StreamOptions& opts = {});

/// Stream the full rows(a) × rows(b) cross-LD rectangle between two stores
/// (same sample universe, same plan geometry — in practice: ingested with
/// the same config). Bit-identical to ld_cross_stat_scan.
void ld_cross_stream(ShardStore& a, ShardStore& b,
                     const LdTileVisitor& visit,
                     const StreamOptions& opts = {});

}  // namespace ldla
