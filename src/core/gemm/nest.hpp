// In-nest parallel fused count drivers (BLIS-style jr/ic parallelism).
//
// The team works *inside* one nest: the operands are packed once (shared,
// immutable), the (ic, jr) macro-tile grid of every jc panel is cut into
// mc x (q·nr) chunks, and the team drains those chunks through per-member
// Chase–Lev deques — LIFO locally for cache locality, FIFO steals from the
// far end of a victim's contiguous block when a member runs dry. Load
// imbalance from ragged edges or the SYRK triangle is absorbed by stealing
// instead of by a static triangle-balancing split.
//
// Every chunk runs the exact per-tile body of the sequential fused drivers
// (core/gemm/fused_tile.hpp), so results are bit-identical to
// gemm_count_fused / syrk_count_fused by construction, and the kernel-call /
// kernel-word trace totals are preserved exactly.
//
// The sink is called concurrently from team members; it must be thread-safe.
// Tiles still partition the in-range window — each output element appears in
// exactly one sink call (SYRK: each element of the diagonal-and-below band;
// strictly-upper slack of diagonal-straddling tiles carries whatever the
// straddling register tiles computed, exactly as in syrk_count_fused, and
// consumers must read the canonical band only; fully-above-diagonal chunks
// are never enumerated).
//
// Teams run on global_pool(); do not call these drivers from inside a task
// already running on that pool (the pool forbids nested run_tasks).
#pragma once

#include "core/gemm/macro.hpp"
#include "core/gemm/packed_bit_matrix.hpp"

namespace ldla {

/// In-nest parallel gemm_count_fused: rows [a_begin, a_end) of `a` against
/// rows [b_begin, b_end) of `b`, tiles delivered to `sink` (thread-safe).
/// threads = 0 means default_thread_count(). A team of <= 1 is the
/// sequential fused driver (checked before any chunk is built, so small
/// one-thread calls pay nothing extra); a problem with a single chunk also
/// degrades to it.
void gemm_count_parallel_nest(const PackedBitMatrix& a, std::size_t a_begin,
                              std::size_t a_end, const PackedBitMatrix& b,
                              std::size_t b_begin, std::size_t b_end,
                              const CountTileSink& sink, unsigned threads = 0);

/// In-nest parallel syrk_count_fused over rows [row_begin, row_end) of `a`:
/// only chunks intersecting the diagonal-and-below band are enumerated.
void syrk_count_parallel_nest(const PackedBitMatrix& a, std::size_t row_begin,
                              std::size_t row_end, const CountTileSink& sink,
                              unsigned threads = 0);

}  // namespace ldla
