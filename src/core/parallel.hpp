// Multi-threaded LD drivers (DESIGN.md §4.4).
//
// Every LD driver takes its team size as a parameter (ld_matrix,
// ld_cross_matrix, ld_stat_scan, ld_cross_stat_scan, ld_matrix_stream,
// ld_cross_stream; BandOptions::threads for ld_band_scan) and hands it on
// to the one tile enumerator (gemm_count_fused / syrk_count_fused). The
// team works *inside* that nest: the operand is packed once as a team (one
// sliver range per worker, one barrier per side), then per-member
// Chase–Lev deques drain a queue of (ic, jr) macro-tile chunks over the
// shared immutable pack, stealing from each other when their block runs
// dry. The symmetric drivers enqueue only diagonal-and-below chunks, so
// the SYRK triangle saving survives parallelization without a static
// triangle-balancing split. The dense matrix drivers write every output
// element exactly once, from the member that owns the tile — ld_matrix's
// sink writes each tile's transpose into the upper triangle while the tile
// is hot — so the output is never zero-filled or mirrored serially, and
// the team first-touches it. Results are bit-identical at every team size;
// the scans call the visitor concurrently when the team is larger than
// one.
//
// `threads` sizes the team (0 = default_thread_count(): the LDLA_THREADS
// environment variable, else hardware concurrency); tasks execute on the
// process-wide global_pool(), so execution parallelism is additionally
// capped by that pool's size and repeated calls pay no thread spawn/join
// cost. Do not call these from inside a global_pool() task.
#pragma once

#include "core/ld.hpp"

namespace ldla {

/// ld_matrix(g, opts, threads) for a haplotype panel. Kept only because
/// the end-to-end benchmark adapter (e2ebench/adapter.cpp) calls it by
/// name; new code calls ld_matrix.
LdMatrix ld_matrix_parallel(const BitMatrix& g, const LdOptions& opts = {},
                            unsigned threads = 0);

}  // namespace ldla
