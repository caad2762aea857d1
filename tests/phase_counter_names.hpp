// The registry counters behind each trace::PhaseCounters field, shared by
// test_metrics (snapshot() reads the registry) and test_trace (a session
// report embeds them). The registry names are public — dashboards and
// scripts/validate_telemetry.py key on them — so this list pins them; the
// steal fields sum the pool's and the nest's counters.
#pragma once

#include <cstdint>
#include <vector>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace ldla::counter_names {

struct FieldSource {
  std::uint64_t trace::PhaseCounters::*field;
  std::vector<const char*> names;
};

inline std::vector<FieldSource> field_sources() {
  using P = trace::PhaseCounters;
  return {
      {&P::bytes_packed, {"ldla_pack_bytes_total"}},
      {&P::slivers_packed, {"ldla_pack_slivers_total"}},
      {&P::slivers_reused, {"ldla_pack_slivers_reused_total"}},
      {&P::kernel_calls, {"ldla_kernel_calls_total"}},
      {&P::kernel_words, {"ldla_kernel_words_total"}},
      {&P::tiles_emitted, {"ldla_tiles_emitted_total"}},
      {&P::epilogue_rows, {"ldla_epilogue_rows_total"}},
      {&P::task_runs, {"ldla_pool_tasks_total"}},
      {&P::steals, {"ldla_pool_steals_total", "ldla_nest_steals_total"}},
      {&P::failed_steals,
       {"ldla_pool_failed_steals_total", "ldla_nest_failed_steals_total"}},
      {&P::parks, {"ldla_pool_parks_total"}},
      {&P::barrier_waits, {"ldla_pool_barrier_waits_total"}},
      {&P::sparse_ll_tiles, {"ldla_sparse_ll_tiles_total"}},
      {&P::sparse_ld_tiles, {"ldla_sparse_ld_tiles_total"}},
      {&P::list_intersections, {"ldla_sparse_intersections_total"}},
      {&P::io_bytes_read, {"ldla_shard_io_bytes_total"}},
      {&P::prefetch_issued, {"ldla_stream_prefetch_issued_total"}},
      {&P::prefetch_hits, {"ldla_stream_prefetch_hits_total"}},
      {&P::prefetch_stalls, {"ldla_stream_prefetch_stalls_total"}},
  };
}

inline std::uint64_t registry_sum(const std::vector<const char*>& names) {
  std::uint64_t total = 0;
  for (const char* name : names) total += metrics::counter(name, "").value();
  return total;
}

}  // namespace ldla::counter_names
