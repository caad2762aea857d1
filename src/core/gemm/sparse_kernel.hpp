// List×list and list×dense count kernels for sparse-classified columns.
//
// Both kernels produce the exact integer |Ai ∧ Bj| the dense micro-kernels
// compute, just by a cheaper route: counts are sums of {0,1} indicators, so
// any evaluation order — merge of two sorted lists, gather over one list,
// or the dense AND+POPCNT panel walk — yields bit-identical results, and
// the fused D/D′/r² epilogue downstream never knows which kernel ran.
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
// These kernels are deliberately portable scalar code: the gather's work
// per entry is ONE word load from the pack's sample-major transpose — the
// word holding that sample's bits for all nr opposing rows at once — plus
// a shift/mask/add per row, with no loop-carried dependency beyond the
// accumulators, so it runs at load-issue throughput on any core. SIMD buys
// little and would drag this header into the intrinsics-confinement set.
// Gathering from the ku-interleaved slivers instead would cost nr strided
// loads spanning nr cache lines per entry; the sorted-merge intersection
// is kept as the reference implementation (and the oracle the unit tests
// cross-check), but the tile dispatcher always prefers the gather because
// the merge's two-pointer advance is a loop-carried dependency that costs
// ~5 cycles per element against the gather's ~1.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

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

/// Sorted-list intersection size (branch-light two-pointer merge).
inline std::uint32_t list_intersect_count(const std::uint32_t* a,
                                          std::size_t na,
                                          const std::uint32_t* b,
                                          std::size_t nb) {
  std::uint32_t hits = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < na && j < nb) {
    const std::uint32_t x = a[i];
    const std::uint32_t y = b[j];
    hits += static_cast<std::uint32_t>(x == y);
    i += static_cast<std::size_t>(x <= y);
    j += static_cast<std::size_t>(y <= x);
  }
  return hits;
}

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
/// the sample-major transpose: `col` points at the word column holding the
/// DR rows' bits (pre-shifted by `shift` within the word), `stride` is
/// words per sample row. One load per entry serves all DR rows, and the
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
/// Prescaled: when true, entries are pack-time pre-multiplied word offsets
/// (sample × stride) and the load is col[*e] directly. The distinction is
/// the gather's critical path, not its µop count: each address is
/// entry-load → scale → word-load, and with the runtime multiply on that
/// chain every miss resolves ~3 cycles later, which at the limited
/// miss-level parallelism of a pointer-chase costs ~1.8× wall time (the
/// value-side spread multiply is off the chain and free). The tile
/// dispatcher uses prescaled lists whenever the list side's own transpose
/// stride matches the dense side's — always, for same-matrix SYRK — and
/// falls back to the runtime scale for cross-matrix pairs of unequal
/// stride.
template <std::size_t DR, bool Prescaled>
inline void gather_entries(const std::uint32_t* lo, const std::uint32_t* hi,
                           const std::uint64_t* col, std::size_t stride,
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
          (Prescaled ? col[*e] : col[*e * stride]) >> shift;
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

/// Compute one register tile — rows [i0, i0+mr) × cols [j0, j0+nr) in
/// global indices of `a`/`b` — where at least one side's sliver group is
/// all-sparse, writing finished counts into the zeroed scratch block `c`
/// (ldc-strided). Only real rows are written; padding entries stay zero,
/// which is also what the dense micro-kernel produces for packed zero
/// rows, so the emitted CountTile is bit-identical either way. `a` and `b`
/// may be the same pack (SYRK) or different packs sharing a plan (cross).
inline void sparse_register_tile(const PackedBitMatrix& a,
                                 const PackedBitMatrix& b, bool a_sparse,
                                 bool b_sparse, std::size_t i0, std::size_t j0,
                                 std::size_t mr, std::size_t nr,
                                 std::uint32_t* c, std::size_t ldc,
                                 SparseTileCounters& tc) {
  const SparseColumns& sa = a.sparse_columns();
  const SparseColumns& sb = b.sparse_columns();
  const std::size_t rows = std::min(mr, a.snps() - i0);
  const std::size_t cols = std::min(nr, b.snps() - j0);

  // Both paths below gather-test list entries of ONE side against the
  // other pack's sample-major transpose. A per-pair sorted merge touches
  // na + nb entries through a loop-carried two-pointer dependency (~5
  // cycles/step, latency-bound); the gather walks only the list side's na
  // entries with fully independent iterations AND covers ALL opposing rows
  // per entry, so it is strictly cheaper — list×list tiles differ from
  // mixed tiles only in getting to CHOOSE the cheaper gather orientation.
  // Orientation: when both sides are sparse, gather the B (j) side's lists
  // against the A side's transpose column. The tile bodies enumerate the
  // sparse pass jr-outer / ir-inner, so the j sliver's list — and the
  // handful of transpose cache lines its samples touch — stays resident
  // across the whole ir sweep, while the A-side word column advances only
  // once every 64/mr tiles. Choosing by list size instead (the smaller
  // side) saves a few entries per tile but makes every tile's gather a
  // cold scatter into the transpose, which costs far more than it saves.
  bool sparse_is_a;
  if (a_sparse && b_sparse) {
    ++tc.ll_tiles;
    sparse_is_a = false;
  } else {
    ++tc.ld_tiles;
    sparse_is_a = a_sparse;
  }

  // Gather-test every list entry of the chosen side's rows against the
  // other pack's sample-major transpose: each entry is one word load whose
  // low bits (after the d0 shift) are that sample's states for ALL the
  // tile's dense-side rows. d0 is mr/nr-aligned and mr, nr ∈ {2, 4, 8}
  // divide 64, so the rows' bits never straddle a word. `acc` holds the
  // raw intersections |stored-list ∧ dense-row| until the complement
  // correction at the end.
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
  const PackedBitMatrix& dpk = sparse_is_a ? b : a;
  const PackedBitMatrix& lpk = sparse_is_a ? a : b;
  // The tile body only routes pairs here when the dense side's pack built
  // its transpose (sparse_pair_ok in macro.cpp).
  LDLA_ASSERT(dpk.has_sample_major());
  const std::size_t stride = dpk.sample_major_stride();
  const std::uint64_t* col = dpk.sample_major() + (d0 >> 6);
  const unsigned shift = static_cast<unsigned>(d0 & 63u);
  // The list side's prescaled entries were scaled by ITS pack's transpose
  // stride; they address the dense side's transpose only when the strides
  // agree (trivially true for same-matrix SYRK, and for cross-matrix packs
  // of equal SNP count).
  const std::uint32_t* scaled =
      lpk.sample_major_stride() == stride ? lpk.scaled_index() : nullptr;
  const auto gather_all = [&](auto prescaled, const std::uint32_t* entries) {
    constexpr bool P = decltype(prescaled)::value;
    for (std::size_t s = 0; s < s_rows; ++s) {
      const std::uint32_t* lo = entries + ss.offset[s0 + s];
      const std::uint32_t* hi = entries + ss.offset[s0 + s + 1];
      std::uint32_t* const acc_s = &acc[s * d_rows];
      // Registered kernels use nr/mr in {2, 4, 8}; the other widths only
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

}  // namespace ldla::detail
