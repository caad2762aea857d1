// Sparse routes to the exact counts |Ai ∧ Bj| (DESIGN.md §4.6). The tile
// body splits a chunk's register tiles three ways:
//   list×list (both slivers all-sparse) → list_list_chunk, a chunk-local
//     index of the A lists by sample, each B list walked once;
//   list×dense → sparse_register_tile, a gather of the list against the
//     dense side's compact sample-major transpose;
//   dense×dense → the micro-kernel.
// Counts are sums of {0,1} indicators, so every route yields bit-identical
// results and the fused D/D′/r² epilogue never knows which one ran.
//
// Complement algebra (n = samples, pi/pj = recorded popcounts, `inter` the
// raw intersection of the two STORED lists):
//   list, list : |Ai∧Bj| = inter
//   list, comp : |Ai∧Bj| = pi − inter          (inter = |Ai ∧ ¬Bj|)
//   comp, list : |Ai∧Bj| = pj − inter          (inter = |¬Ai ∧ Bj|)
//   comp, comp : |Ai∧Bj| = pi + pj + inter − n (inter = |¬Ai ∧ ¬Bj|)
// All quantities are exact and non-negative; the identities are plain
// inclusion–exclusion and rely only on the clean-padding invariant (bits
// beyond n_samples are zero, enforced when the lists were built).
//
// A gather re-walks its list once per opposing sliver: in a list×list
// chunk of R sparse rows every B list was re-read R/mr times. The chunk
// product walks each B list once against an L2-resident index. Both are
// portable scalar code; SIMD would drag this header into the
// intrinsics-confinement set.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <type_traits>
#include <vector>

#include "core/gemm/packed_bit_matrix.hpp"
#include "core/gemm/sparse.hpp"
#include "util/contract.hpp"

namespace ldla::detail {

/// Work done by the sparse dispatch inside one fused tile; the tile bodies
/// fold these into the trace counters under the kernel span.
struct SparseTileCounters {
  std::uint64_t ll_tiles = 0;       ///< list×list register tiles
  std::uint64_t ld_tiles = 0;       ///< list×dense register tiles
  std::uint64_t intersections = 0;  ///< row-pair intersections computed
};

/// The complement-algebra table above, as code.
inline std::uint32_t sparse_corrected_count(ColumnKind ki, ColumnKind kj,
                                            std::uint32_t pi, std::uint32_t pj,
                                            std::uint32_t n,
                                            std::uint32_t inter) {
  if (ki == ColumnKind::kList) {
    return kj == ColumnKind::kList ? inter : pi - inter;
  }
  return kj == ColumnKind::kList ? pj - inter : pi + pj + inter - n;
}

/// Gather-accumulate one row's list entries against DR opposing rows via
/// the compact sample-major transpose: `col` points at the byte column
/// holding the DR rows' bits (at `shift` within the byte), `stride` is
/// bytes per sample row. One load per entry serves all DR rows, and the
/// per-entry update is SWAR, not a per-row loop: spreading the DR gathered
/// bits into 16-bit lanes of a 64-bit accumulator costs one multiply and
/// one mask regardless of DR (two for DR > 4), where per-row shift+mask+
/// adds cost ~3 µops each. The spread multiplier puts bit t at lane
/// boundary 16t (2^0 + 2^15 + 2^30 + 2^45): partial products land at
/// t + 15s, which collides only when t − t′ = 15(s′ − s), impossible for
/// t < 4, so no carries cross lanes before the mask. Lanes saturate at
/// 2^16 − 1 entries; the outer chunk loop re-drains every 2^15 so
/// arbitrarily long lists (large thresholds) stay exact.
///
/// Prescaled: when true, entries are pack-time pre-multiplied byte offsets
/// (sample × stride) and the load is col[*e] directly. The distinction is
/// the gather's critical path, not its µop count: each address is
/// entry-load → scale → byte-load, and with the runtime multiply on that
/// chain every miss resolves ~3 cycles later, which at the limited
/// miss-level parallelism of a pointer-chase costs ~1.8× wall time (the
/// value-side spread multiply is off the chain and free). The tile
/// dispatcher uses prescaled lists whenever the list side's own transpose
/// stride matches the dense side's — always, for same-matrix SYRK — and
/// falls back to the runtime scale for cross-matrix pairs of unequal
/// stride.
template <std::size_t DR, bool Prescaled>
inline void gather_entries(const std::uint32_t* lo, const std::uint32_t* hi,
                           const std::uint8_t* col, std::size_t stride,
                           unsigned shift, std::uint32_t* acc_s) {
  static_assert(DR <= 8, "register tiles gather at most 8 opposing rows");
  constexpr std::uint64_t kSpread = 0x0000200040008001ull;
  constexpr std::uint64_t kLanes = 0x0001000100010001ull;
  std::uint32_t total[DR] = {};
  while (lo != hi) {
    const std::uint32_t* stop = hi - lo > 0x8000 ? lo + 0x8000 : hi;
    std::uint64_t lanes_lo = 0;
    std::uint64_t lanes_hi = 0;
    for (const std::uint32_t* e = lo; e != stop; ++e) {
      const std::uint64_t v =
          static_cast<std::uint64_t>(Prescaled ? col[*e] : col[*e * stride]) >>
          shift;
      lanes_lo += ((v & 0xFu) * kSpread) & kLanes;
      if constexpr (DR > 4) {
        lanes_hi += (((v >> 4) & 0xFu) * kSpread) & kLanes;
      }
    }
    for (std::size_t t = 0; t < DR; ++t) {
      const std::uint64_t lanes = t < 4 ? lanes_lo : lanes_hi;
      total[t] += static_cast<std::uint32_t>((lanes >> ((t & 3) * 16)) &
                                             0xFFFFu);
    }
    lo = stop;
  }
  // Assign, not accumulate: the caller's scratch slot is written exactly
  // once per (s, t), so the accumulator block needs no zero-init pass.
  for (std::size_t t = 0; t < DR; ++t) acc_s[t] = total[t];
}

/// Compute one list×dense register tile — rows [i0, i0+mr) × cols
/// [j0, j0+nr) of `a`/`b`, the `sparse_is_a` side all-sparse — writing
/// finished counts into the zeroed scratch block `c` (ldc-strided). `dsm`
/// is the dense side's transpose (its pack's own, or one a cross call
/// built for it). Only real rows are written; padding entries stay zero,
/// which is also what the dense micro-kernel produces for packed zero
/// rows, so the emitted CountTile is bit-identical either way. `a` and `b`
/// may be the same pack (SYRK) or different packs sharing a plan (cross).
inline void sparse_register_tile(const PackedBitMatrix& a,
                                 const PackedBitMatrix& b,
                                 const SampleMajor& dsm, bool sparse_is_a,
                                 std::size_t i0, std::size_t j0,
                                 std::size_t mr, std::size_t nr,
                                 std::uint32_t* c, std::size_t ldc,
                                 SparseTileCounters& tc) {
  const SparseColumns& sa = a.sparse_columns();
  const SparseColumns& sb = b.sparse_columns();
  const std::size_t rows = std::min(mr, a.snps() - i0);
  const std::size_t cols = std::min(nr, b.snps() - j0);
  ++tc.ld_tiles;

  // Gather-test every list entry of the sparse side's rows against the
  // dense side's compact transpose: each entry is one byte load whose low
  // bits (after the d0 shift) are that sample's states for ALL the tile's
  // dense-side rows. d0 is mr/nr-aligned and mr, nr divide 8,
  // so the rows' bits never straddle a byte, and the dense sliver's group
  // is kept. `acc` holds the raw intersections |stored-list ∧ dense-row|
  // until the complement correction at the end.
  const SparseColumns& ss = sparse_is_a ? sa : sb;
  const SparseColumns& sd = sparse_is_a ? sb : sa;
  const std::size_t s0 = sparse_is_a ? i0 : j0;
  const std::size_t d0 = sparse_is_a ? j0 : i0;
  const std::size_t s_rows = sparse_is_a ? rows : cols;
  const std::size_t d_rows = sparse_is_a ? cols : rows;
  // Uninitialized on purpose: every (s, t) slot is assigned by exactly one
  // gather_entries call below before the correction loop reads it.
  std::array<std::uint32_t, 64> acc;
  LDLA_BOUNDS_CHECK(s_rows * d_rows <= acc.size(),
                    "register tile exceeds sparse accumulator capacity");
  const PackedBitMatrix& lpk = sparse_is_a ? a : b;
  const std::size_t stride = dsm.row_bytes;
  const std::uint8_t* col = dsm.column(d0);
  const unsigned shift = static_cast<unsigned>(d0 & 7u);
  // The list side's prescaled entries were scaled by ITS pack's transpose
  // stride; they address the dense side's transpose only when the strides
  // agree (trivially true for same-matrix SYRK).
  const std::uint32_t* scaled =
      lpk.sample_major_stride() == stride ? lpk.scaled_index() : nullptr;
  const auto gather_all = [&](auto prescaled, const std::uint32_t* entries) {
    constexpr bool P = decltype(prescaled)::value;
    for (std::size_t s = 0; s < s_rows; ++s) {
      const std::uint32_t* lo = entries + ss.offset[s0 + s];
      const std::uint32_t* hi = entries + ss.offset[s0 + s + 1];
      std::uint32_t* const acc_s = &acc[s * d_rows];
      // Registered kernels use nr/mr in {1, 2, 4, 8}; the other widths only
      // occur on the ragged last sliver.
      switch (d_rows) {
        case 8: gather_entries<8, P>(lo, hi, col, stride, shift, acc_s); break;
        case 4: gather_entries<4, P>(lo, hi, col, stride, shift, acc_s); break;
        case 2: gather_entries<2, P>(lo, hi, col, stride, shift, acc_s); break;
        case 1: gather_entries<1, P>(lo, hi, col, stride, shift, acc_s); break;
        case 3: gather_entries<3, P>(lo, hi, col, stride, shift, acc_s); break;
        case 5: gather_entries<5, P>(lo, hi, col, stride, shift, acc_s); break;
        case 6: gather_entries<6, P>(lo, hi, col, stride, shift, acc_s); break;
        case 7: gather_entries<7, P>(lo, hi, col, stride, shift, acc_s); break;
        default:
          LDLA_BOUNDS_CHECK(false, "d_rows is min(mr|nr, remainder) <= 8");
          break;
      }
    }
  };
  if (scaled != nullptr) {
    gather_all(std::true_type{}, scaled);
  } else {
    gather_all(std::false_type{}, ss.index.data());
  }
  tc.intersections += static_cast<std::uint64_t>(s_rows) * d_rows;
  for (std::size_t s = 0; s < s_rows; ++s) {
    const ColumnKind ks = ss.kind[s0 + s];
    for (std::size_t t = 0; t < d_rows; ++t) {
      const std::uint32_t inter = acc[s * d_rows + t];
      // kList: the gather already counted |As ∧ Dd|. kComplement: it
      // counted |¬As ∧ Dd|, so subtract from the dense side's popcount.
      const std::uint32_t cnt =
          ks == ColumnKind::kList ? inter : sd.popcount[d0 + t] - inter;
      if (sparse_is_a) {
        c[s * ldc + t] = cnt;
      } else {
        c[t * ldc + s] = cnt;
      }
    }
  }
}

/// list_list_chunk's workspace, one per team member, reused like the count
/// scratch and sized by the chunk's A-side list entries, never its width.
struct ListIndex {
  std::vector<std::size_t> rows;     ///< rows of all-sparse slivers, ascending
  std::vector<std::size_t> comp;     ///< the kComplement subset of `rows`
  std::vector<std::size_t> start;    ///< bucket b: entry[start[b], start[b+1])
  std::vector<std::uint64_t> entry;  ///< sample << 32 | row, by bucket
};

/// Every list×list register tile of the chunk rows [ic, ic + tile_rows) ×
/// cols [jc, jc + tile_cols), as one sparse product into the zeroed
/// scratch `c`: bucket the all-sparse A rows' list entries by sample, walk
/// each all-sparse B column's list once adding 1 per (row, col) hit, then
/// correct every pair with a kComplement side — hit or not, since its count
/// is not its intersection. `rows_of(jr)` is the column sliver's row window
/// {r_lo, r_hi} (chunk-local, on the mr grid): the register tiles of the
/// nest's shape. Rows outside it are left zero, as in the dense walk, and
/// a sliver with an empty window is skipped.
template <typename RowWindow>
inline void list_list_chunk(const PackedBitMatrix& a, const PackedBitMatrix& b,
                            std::size_t ic, std::size_t tile_rows,
                            std::size_t jc, std::size_t tile_cols,
                            const RowWindow& rows_of, std::uint32_t* c,
                            std::size_t ldc, ListIndex& ix,
                            SparseTileCounters& tc) {
  const SparseColumns& sa = a.sparse_columns();
  const SparseColumns& sb = b.sparse_columns();
  const std::size_t mr = a.plan().mr;
  const std::size_t nr = a.plan().nr;
  ix.rows.clear();
  ix.comp.clear();
  std::size_t entries = 0;
  for (std::size_t ir = 0; ir < tile_rows; ir += mr) {
    if (!a.a_sliver_sparse((ic + ir) / mr)) continue;
    for (std::size_t r = ir; r < std::min(ir + mr, a.snps() - ic); ++r) {
      ix.rows.push_back(r);
      if (sa.kind[ic + r] == ColumnKind::kComplement) ix.comp.push_back(r);
      entries += sa.list_size(ic + r);
    }
  }
  if (ix.rows.empty()) return;

  // Counting sort into > 2 × entries buckets of consecutive samples (one
  // per sample when samples are fewer); a sorted B list sweeps them in order.
  const std::size_t sample_bits = std::bit_width(sa.n_samples);
  const std::size_t shift =
      sample_bits - std::min(std::bit_width(entries | 1) + 1, sample_bits);
  const auto each_entry = [&](const auto& f) {
    for (const std::size_t r : ix.rows) {
      const std::uint32_t* l = sa.list(ic + r);
      for (std::size_t e = 0; e < sa.list_size(ic + r); ++e) f(r, l[e]);
    }
  };
  ix.start.assign((std::size_t{1} << (sample_bits - shift)) + 2, 0);
  each_entry([&](std::size_t, std::uint32_t s) {
    ++ix.start[(s >> shift) + 2];
  });
  std::partial_sum(ix.start.begin(), ix.start.end(), ix.start.begin());
  ix.entry.resize(entries);
  each_entry([&](std::size_t r, std::uint32_t s) {
    ix.entry[ix.start[(s >> shift) + 1]++] = std::uint64_t{s} << 32 | r;
  });

  const auto n = static_cast<std::uint32_t>(sa.n_samples);
  for (std::size_t jr = 0; jr < tile_cols; jr += nr) {
    if (!b.b_sliver_sparse((jc + jr) / nr)) continue;
    const auto [r_lo, r_hi] = rows_of(jr);
    if (r_lo >= r_hi) continue;
    const auto first = std::lower_bound(ix.rows.begin(), ix.rows.end(), r_lo);
    const auto last = std::lower_bound(first, ix.rows.end(), r_hi);
    const auto comp = std::lower_bound(ix.comp.begin(), ix.comp.end(), r_lo);
    const auto comp_last = std::lower_bound(comp, ix.comp.end(), r_hi);
    const std::size_t cols = std::min(nr, b.snps() - (jc + jr));
    for (std::size_t ir = r_lo; ir < r_hi; ir += mr) {
      tc.ll_tiles += a.a_sliver_sparse((ic + ir) / mr) ? 1u : 0u;
    }
    tc.intersections += static_cast<std::uint64_t>(last - first) * cols;
    const std::size_t window = r_hi - r_lo;
    for (std::size_t j = jr; j < jr + cols; ++j) {
      const std::size_t gj = jc + j;
      const std::uint32_t* l = sb.list(gj);
      for (std::size_t e = 0; e < sb.list_size(gj); ++e) {
        const std::uint32_t s = l[e];
        for (std::size_t k = ix.start[s >> shift];
             k < ix.start[(s >> shift) + 1]; ++k) {
          const auto r = static_cast<std::uint32_t>(ix.entry[k]);
          c[r * ldc + j] += static_cast<std::uint32_t>(
              (ix.entry[k] >> 32 == s) & (r - r_lo < window));
        }
      }
      const auto correct = [&](std::size_t r) {
        std::uint32_t& cnt = c[r * ldc + j];
        cnt = sparse_corrected_count(sa.kind[ic + r], sb.kind[gj],
                                     sa.popcount[ic + r], sb.popcount[gj], n,
                                     cnt);
      };
      if (sb.kind[gj] == ColumnKind::kComplement) {
        std::for_each(first, last, correct);
      } else {
        std::for_each(comp, comp_last, correct);
      }
    }
  }
}

}  // namespace ldla::detail
