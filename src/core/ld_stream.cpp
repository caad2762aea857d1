// Streaming LD drivers: pair-grid walk + double-buffered prefetch over a
// ShardStore, fused-epilogue emission identical to core/ld.cpp.

#include "core/ld_stream.hpp"

#include <algorithm>
#include <vector>

#include "core/detail/ld_stats_row.hpp"
#include "core/gemm/syrk.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace ldla {
namespace {

/// One shard-pair of the walk: row-side shard r, column-side shard c
/// (r == c with a single store = the diagonal SYRK pair).
struct StreamPair {
  std::size_t r = 0;
  std::size_t c = 0;
};

/// A shard of a specific store (the two-store cross walk mixes them).
using ShardKey = std::pair<ShardStore*, std::size_t>;

/// The residency/overlap engine shared by both drivers. Owns the LRU
/// eviction state and the hit/stall/issued accounting; the caller supplies
/// the pair list and the compute body.
class PairWalker {
 public:
  PairWalker(ShardStore* rs, ShardStore* cs, const StreamOptions& opts)
      : rs_(rs), cs_(cs), opts_(opts) {
    if (opts_.cache_bytes != 0) {
      // Two shards in flight per pair, times two pairs when the double
      // buffer holds the next pair alongside the current one. A budget
      // below this floor could not honor the pin set, so the residency
      // bound would silently degrade to best-effort; reject instead.
      const std::size_t pair_ws =
          rs_->max_shard_bytes() +
          (cs_ == rs_ ? rs_->max_shard_bytes() : cs_->max_shard_bytes());
      LDLA_EXPECT(opts_.cache_bytes >= 2 * pair_ws,
                  "stream cache budget below the working set (needs two "
                  "pairs of shards)");
      // A warm store (earlier stream, caller-materialized shards) starts
      // with residency this walk did not create; adopt those shards as
      // coldest LRU entries so the budget invariant holds from pair 0.
      for (std::size_t i = 0; i < rs_->shards(); ++i) {
        if (rs_->is_materialized(i)) note_use({rs_, i});
      }
      if (cs_ != rs_) {
        for (std::size_t i = 0; i < cs_->shards(); ++i) {
          if (cs_->is_materialized(i)) note_use({cs_, i});
        }
      }
    }
  }

  void run(const std::vector<StreamPair>& pairs,
           const std::function<void(const StreamPair&, const PackedBitMatrix&,
                                    const PackedBitMatrix&)>& compute) {
    const bool overlap = opts_.threads == 1;
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const StreamPair& cur = pairs[k];
      const ShardKey rkey{rs_, cur.r};
      const ShardKey ckey{cs_, cur.c};

      // Pin set for this iteration: the current pair plus the next pair,
      // which prefetch touches before the next make_room. Every
      // shard this iteration materializes (current stalls, overlap
      // prefetches) is pinned, so make_room can reserve exact headroom and
      // the budget holds at every instant, not just between pairs.
      std::vector<ShardKey> pinned{rkey};
      if (ckey != rkey) pinned.push_back(ckey);
      std::vector<ShardKey> next;
      if (k + 1 < pairs.size()) {
        next.push_back({rs_, pairs[k + 1].r});
        const ShardKey nc{cs_, pairs[k + 1].c};
        if (nc != next.front()) next.push_back(nc);
        for (const ShardKey& key : next) {
          if (std::find(pinned.begin(), pinned.end(), key) == pinned.end()) {
            pinned.push_back(key);
          }
        }
      }
      make_room(pinned);

      const PackedBitMatrix& pr = acquire(rkey);
      const PackedBitMatrix& pc = ckey == rkey ? pr : acquire(ckey);

      // Which of the next pair's shards are still cold?
      std::vector<ShardKey> targets;
      for (const ShardKey& key : next) {
        if (!key.first->is_materialized(key.second)) {
          key.first->prefetch(key.second);  // async readahead hint
          LDLA_TRACE_ADD_PREFETCH_ISSUED();
          targets.push_back(key);
        }
      }

      if (overlap && !targets.empty()) {
        // The double buffer: compute this pair as task 0 while task 1
        // materializes (explicitly faults, under the io phase) the next
        // pair's cold shards on the work-stealing pool. The join makes
        // every prefetched shard a guaranteed hit at the next acquire.
        // The fused compute is sequential here, so the two tasks are the
        // only users of the pool slot pair — safe against the no-nested-
        // run_tasks rule.
        global_pool().run_tasks(2, [&](std::size_t task) {
          if (task == 0) {
            LDLA_METRICS_ONLY(
                static metrics::Histogram& h_compute = metrics::histogram(
                    "ldla_stream_pair_compute_seconds",
                    "per-shard-pair fused compute latency");
                metrics::ScopedLatency metrics_lat(h_compute);)
            compute(cur, pr, pc);
          } else {
            LDLA_METRICS_ONLY(
                static metrics::Histogram& h_mat = metrics::histogram(
                    "ldla_stream_pair_materialize_seconds",
                    "overlapped materialization latency for a pair's cold "
                    "shards");
                metrics::ScopedLatency metrics_lat(h_mat);)
            for (const ShardKey& key : targets) {
              key.first->shard(key.second);
              note_use(key);
            }
          }
        });
      } else {
        // Nest mode (threads != 1): the parallel drivers own the pool, so
        // the madvise hint above is all the lookahead we get; the next
        // acquire will honestly count a stall.
        LDLA_METRICS_ONLY(
            static metrics::Histogram& h_compute = metrics::histogram(
                "ldla_stream_pair_compute_seconds",
                "per-shard-pair fused compute latency");
            metrics::ScopedLatency metrics_lat(h_compute);)
        compute(cur, pr, pc);
      }
    }
  }

 private:
  const PackedBitMatrix& acquire(const ShardKey& key) {
    if (key.first->is_materialized(key.second)) {
      LDLA_TRACE_ADD_PREFETCH_HIT();
    } else {
      LDLA_TRACE_ADD_PREFETCH_STALL();
    }
    const PackedBitMatrix& pk = key.first->shard(key.second);
    note_use(key);
    return pk;
  }

  void note_use(const ShardKey& key) {
    const auto it = std::find(lru_.begin(), lru_.end(), key);
    if (it != lru_.end()) lru_.erase(it);
    lru_.push_back(key);
  }

  /// Evict cold LRU shards until the budget has room for every pinned
  /// shard that is about to be materialized. The constructor's floor check
  /// guarantees the target is reachable (everything non-pinned is
  /// evictable and the pin set itself fits the budget), which is what
  /// upgrades the residency bound from best-effort to an invariant:
  /// resident_bytes never exceeds cache_bytes at ANY instant of the walk.
  void make_room(const std::vector<ShardKey>& pinned) {
    if (opts_.cache_bytes == 0) return;
    std::size_t reserve = 0;
    for (const ShardKey& key : pinned) {
      if (!key.first->is_materialized(key.second)) {
        reserve += key.first->shard_bytes(key.second);
      }
    }
    const std::size_t target =
        opts_.cache_bytes >= reserve ? opts_.cache_bytes - reserve : 0;
    std::size_t resident = rs_->resident_bytes();
    if (cs_ != rs_) resident += cs_->resident_bytes();
    for (auto it = lru_.begin(); it != lru_.end() && resident > target;) {
      if (std::find(pinned.begin(), pinned.end(), *it) != pinned.end()) {
        ++it;
        continue;
      }
      resident -= it->first->shard_bytes(it->second);
      it->first->release(it->second);
      it = lru_.erase(it);
      LDLA_METRICS_ONLY(
          static metrics::Counter& c_evict = metrics::counter(
              "ldla_stream_evictions_total",
              "LRU shard evictions by the residency budget");
          c_evict.inc();)
    }
    LDLA_METRICS_ONLY(
        static metrics::Gauge& g_resident = metrics::gauge(
            "ldla_stream_resident_bytes",
            "bookkept shard-store residency after make_room");
        g_resident.set(static_cast<std::uint64_t>(resident));)
  }

  ShardStore* rs_;
  ShardStore* cs_;
  const StreamOptions& opts_;
  std::vector<ShardKey> lru_;  ///< front = coldest; mutated on the walk
                               ///< thread and the joined prefetch task only
};

}  // namespace

void ld_matrix_stream(ShardStore& store, const LdTileVisitor& visit,
                      const StreamOptions& opts) {
  LDLA_METRICS_ONLY(
      static metrics::Histogram& h_call = metrics::histogram(
          "ldla_stream_seconds",
          "ld_matrix_stream / ld_cross_stream driver call latency");
      metrics::ScopedLatency metrics_lat(h_call);)
  LDLA_EXPECT(visit != nullptr, "stat-tile stream needs a visitor");
  const std::size_t S = store.shards();
  if (S == 0) return;
  const detail::StatTables tables = detail::make_stat_tables_from_counts(
      store.allele_counts(), store.samples());
  // ld_stat_scan's emitter, with tiles rebased from shard-local to global
  // indices. A diagonal pair (same shard both sides) keeps only the
  // canonical part; an off-diagonal pair lies strictly below the diagonal
  // (every column index < every row index), so its tiles go out whole.
  const detail::StatTileEmitter emit(
      detail::StatRows{opts.stat, tables, tables}, store.plan(), store.snps(),
      store.snps(), opts.threads, visit);

  // Row-major over the lower triangle: consecutive pairs share the row
  // shard, so with any budget >= the floor, each row shard stalls at most
  // once per grid row and every jc revisit within the row is a hit.
  std::vector<StreamPair> pairs;
  pairs.reserve(S * (S + 1) / 2);
  for (std::size_t ic = 0; ic < S; ++ic) {
    for (std::size_t jc = 0; jc <= ic; ++jc) {
      pairs.push_back({ic, jc});
    }
  }

  PairWalker walker(&store, &store, opts);
  walker.run(pairs, [&](const StreamPair& p, const PackedBitMatrix& pr,
                        const PackedBitMatrix& pc) {
    const std::size_t rbase = store.shard_row_begin(p.r);
    const std::size_t rows = store.shard_rows(p.r);
    if (p.r == p.c) {
      syrk_count_fused(
          pr, 0, rows,
          [&](const CountTile& t) {
            emit(t, detail::TilePart::kLower, rbase, rbase);
          },
          opts.threads);
    } else {
      const std::size_t cbase = store.shard_row_begin(p.c);
      gemm_count_fused(
          pr, 0, rows, pc, 0, store.shard_rows(p.c),
          [&](const CountTile& t) {
            emit(t, detail::TilePart::kFull, rbase, cbase);
          },
          opts.threads);
    }
  });
}

void ld_cross_stream(ShardStore& a, ShardStore& b,
                     const LdTileVisitor& visit,
                     const StreamOptions& opts) {
  LDLA_METRICS_ONLY(
      static metrics::Histogram& h_call = metrics::histogram(
          "ldla_stream_seconds",
          "ld_matrix_stream / ld_cross_stream driver call latency");
      metrics::ScopedLatency metrics_lat(h_call);)
  LDLA_EXPECT(visit != nullptr, "stat-tile stream needs a visitor");
  LDLA_EXPECT(a.samples() == b.samples(),
              "cross-matrix LD needs matching sample sets");
  const GemmPlan& pa = a.plan();
  const GemmPlan& pb = b.plan();
  LDLA_EXPECT(pa.arch == pb.arch && pa.mr == pb.mr && pa.nr == pb.nr &&
                  pa.ku == pb.ku && pa.kc_words == pb.kc_words,
              "cross-stream stores must be ingested with the same plan "
              "geometry (same config)");
  const std::size_t sa = a.shards();
  const std::size_t sb = b.shards();
  if (sa == 0 || sb == 0) return;
  const detail::StatTables ta = detail::make_stat_tables_from_counts(
      a.allele_counts(), a.samples());
  const detail::StatTables tb = detail::make_stat_tables_from_counts(
      b.allele_counts(), b.samples());
  const detail::StatTileEmitter emit(detail::StatRows{opts.stat, ta, tb}, pa,
                                     a.snps(), b.snps(), opts.threads, visit);

  std::vector<StreamPair> pairs;
  pairs.reserve(sa * sb);
  for (std::size_t ia = 0; ia < sa; ++ia) {
    for (std::size_t jb = 0; jb < sb; ++jb) {
      pairs.push_back({ia, jb});
    }
  }

  PairWalker walker(&a, &b, opts);
  walker.run(pairs, [&](const StreamPair& p, const PackedBitMatrix& pr,
                        const PackedBitMatrix& pc) {
    const std::size_t rbase = a.shard_row_begin(p.r);
    const std::size_t rows = a.shard_rows(p.r);
    const std::size_t cbase = b.shard_row_begin(p.c);
    const std::size_t cols = b.shard_rows(p.c);
    gemm_count_fused(
        pr, 0, rows, pc, 0, cols,
        [&](const CountTile& t) {
          emit(t, detail::TilePart::kFull, rbase, cbase);
        },
        opts.threads);
  });
}

}  // namespace ldla
