// Persistent packed operand: the whole SNP matrix pre-packed once into the
// micro-panel layout the kernels consume, keyed to a GemmPlan.
//
// Every count driver runs one GotoBLAS nest over packed operands. For the
// paper's rank-k genomic shapes and for windowed workloads (decay profiles,
// omega scans, haplotype blocks) the same matrix is multiplied many times,
// so the pack is hoisted out of the nest: pack once per dataset (or once
// per call, by resolve_packed), then every driver reads immutable slivers.
//
// Layout: the k dimension is split into the plan's kc-word panels. Within a
// panel every sliver (group of r rows, r = mr for the A side, nr for the B
// side) is stored contiguously in exactly the pack_panel layout, so a
// PackedPanelView over any contiguous sliver range aliases the persistent
// buffer with zero copying. When mr == nr one copy serves both operand
// sides. Memory cost: ceil(n_snps/r)*r * ceil(k/ku)*ku words per side
// (~ the bit matrix itself per side).
//
// Storage can be owned (packed here from a BitMatrixView) or adopted from
// caller-managed memory via from_external(): the shard store (io/
// shard_store.hpp) persists exactly this layout on disk and memory-maps it
// back, so a mapped shard is consumed by every packed/fused/nest driver
// with zero copy. The large payloads (slivers, sample-major transpose,
// prescaled index lists) alias the external memory; the small sparse
// metadata (CSR offsets, kinds, popcounts, sliver flags) is copied in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/bit_matrix.hpp"
#include "core/gemm/config.hpp"
#include "core/gemm/packing.hpp"
#include "core/gemm/sparse.hpp"
#include "util/aligned_buffer.hpp"
#include "util/contract.hpp"

namespace ldla {

/// Which operand sides to materialize. Same-matrix drivers need both (and
/// share storage when mr == nr); cross-matrix drivers pack A-only / B-only.
enum class PackSides { kBoth, kA, kB };

/// Descriptor for adopting an externally materialized pack (the mmap'd
/// shard store). Payload pointers must be 64-byte aligned, immutable, and
/// outlive the PackedBitMatrix; metadata members are moved in. A null
/// b_data with mr == nr shares the A payload between both operand sides.
struct ExternalPack {
  GemmPlan plan;
  std::size_t n_snps = 0;
  std::size_t n_words = 0;
  std::size_t n_samples = 0;
  const std::uint64_t* a_data = nullptr;
  const std::uint64_t* b_data = nullptr;
  SparseColumns sparse;
  std::vector<std::uint8_t> a_sliver_sparse;
  std::vector<std::uint8_t> b_sliver_sparse;
  const std::uint64_t* sample_major = nullptr;  ///< null = transpose absent
  std::size_t sm_stride = 0;
  const std::uint32_t* scaled_index = nullptr;  ///< null = transpose absent
};

class PackedBitMatrix {
 public:
  PackedBitMatrix() = default;

  /// Pack all rows of `m` for `plan`. `threads` > 1 packs each side as a
  /// parallel team on global_pool(): every worker packs a disjoint sliver
  /// range of every k panel, joined by one barrier per side; the result is
  /// byte-identical to a sequential pack and the pack counters stay exact
  /// (pack_panel self-accounts).
  PackedBitMatrix(const BitMatrixView& m, const GemmPlan& plan,
                  PackSides sides = PackSides::kBoth, unsigned threads = 1);

  /// Resolve `cfg` against the machine and pack (convenience).
  static PackedBitMatrix pack(const BitMatrixView& m,
                              const GemmConfig& cfg = {},
                              PackSides sides = PackSides::kBoth,
                              unsigned threads = 1);

  /// Adopt a pack whose payloads live in caller-managed memory (see
  /// ExternalPack). Byte-for-byte the layout an owning pack of the same
  /// matrix and plan would hold, so the drivers cannot tell the difference.
  /// Contract-checks plan resolution, payload alignment, and that the
  /// metadata sizes are consistent with the plan-implied sliver geometry.
  static PackedBitMatrix from_external(ExternalPack ext);

  PackedBitMatrix(PackedBitMatrix&&) noexcept = default;
  PackedBitMatrix& operator=(PackedBitMatrix&&) noexcept = default;
  PackedBitMatrix(const PackedBitMatrix&) = delete;
  PackedBitMatrix& operator=(const PackedBitMatrix&) = delete;

  [[nodiscard]] bool empty() const noexcept { return n_snps_ == 0; }
  [[nodiscard]] std::size_t snps() const noexcept { return n_snps_; }
  [[nodiscard]] std::size_t words_per_snp() const noexcept { return n_words_; }
  [[nodiscard]] std::size_t samples() const noexcept { return n_samples_; }
  [[nodiscard]] const GemmPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] bool has_a_side() const noexcept { return a_.r != 0; }
  [[nodiscard]] bool has_b_side() const noexcept {
    return b_shares_a_ || b_.r != 0;
  }

  /// Effective kc in words (the plan's kc clamped to the padded k extent);
  /// panel p covers source words [p*kc, min((p+1)*kc, k)).
  [[nodiscard]] std::size_t kc_words() const noexcept { return kc_; }
  [[nodiscard]] std::size_t panels() const noexcept { return panels_; }
  [[nodiscard]] std::size_t panel_k_begin(std::size_t p) const {
    LDLA_BOUNDS_CHECK(p < panels_, "k panel index out of range");
    return p * kc_;
  }
  [[nodiscard]] std::size_t panel_kc(std::size_t p) const {
    LDLA_BOUNDS_CHECK(p < panels_, "k panel index out of range");
    const std::size_t begin = p * kc_;
    return n_words_ - begin < kc_ ? n_words_ - begin : kc_;
  }
  [[nodiscard]] std::size_t panel_kc_padded(std::size_t p) const {
    const std::size_t ku = plan_.ku;
    return (panel_kc(p) + ku - 1) / ku * ku;
  }

  /// Total words held across both sides (memory footprint; external
  /// payloads count the words they alias).
  [[nodiscard]] std::size_t packed_words() const noexcept {
    return a_.words + b_.words;
  }

  // Raw payload access for the shard-store writer (io/shard_store.cpp):
  // the serialized sections are exactly these spans. b_data() is null when
  // the B side shares A's storage or was not materialized.
  [[nodiscard]] const std::uint64_t* a_data() const noexcept { return a_.ptr; }
  [[nodiscard]] std::size_t a_data_words() const noexcept { return a_.words; }
  [[nodiscard]] const std::uint64_t* b_data() const noexcept { return b_.ptr; }
  [[nodiscard]] std::size_t b_data_words() const noexcept { return b_.words; }
  [[nodiscard]] const std::vector<std::uint8_t>& a_sliver_flags()
      const noexcept {
    return a_sliver_sparse_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& b_sliver_flags()
      const noexcept {
    return b_sliver_sparse_;
  }

  /// View of `slivers` consecutive A-side (r = mr) groups of k-panel `p`,
  /// starting at group `sliver_begin` (rows [sliver_begin*mr, ...)).
  [[nodiscard]] PackedPanelView a_panel(std::size_t p, std::size_t sliver_begin,
                                        std::size_t slivers) const;

  /// Same for the B side (r = nr). Shares A-side storage when mr == nr.
  [[nodiscard]] PackedPanelView b_panel(std::size_t p, std::size_t sliver_begin,
                                        std::size_t slivers) const;

  /// Per-column popcounts (always recorded) plus the sorted index lists the
  /// plan's sparse_threshold classified at pack time (DESIGN.md §4.6).
  [[nodiscard]] const SparseColumns& sparse_columns() const noexcept {
    return sparse_;
  }

  /// True when any sliver on any materialized side is all-sparse — the
  /// fused tile bodies take the hybrid dispatch path iff this holds, so
  /// fully dense packs keep the exact original kernel loop.
  [[nodiscard]] bool hybrid_dispatch() const noexcept { return hybrid_; }

  /// A sliver group is "sparse" when every real row in it is list- or
  /// complement-classified; register tiles whose sides are both sparse (or
  /// one sparse, one dense) dispatch to the list kernels. Padding rows in
  /// the last group are all-zero and never consulted, so a partial group
  /// is classified by its real rows alone. Returns false for sliver grids
  /// the pack did not materialize or when the threshold is 0.
  [[nodiscard]] bool a_sliver_sparse(std::size_t s) const noexcept {
    return s < a_sliver_sparse_.size() && a_sliver_sparse_[s] != 0;
  }
  [[nodiscard]] bool b_sliver_sparse(std::size_t s) const noexcept {
    const std::vector<std::uint8_t>& v =
        b_shares_a_ ? a_sliver_sparse_ : b_sliver_sparse_;
    return s < v.size() && v[s] != 0;
  }

  /// Sample-major transpose of the source matrix — one row per sample,
  /// ceil(snps/64) words per row — built at pack time whenever any column
  /// classified sparse. The list kernels gather against it: one word load
  /// per list entry tests that sample against ALL nr rows of a register
  /// tile at once, where the ku-interleaved slivers would cost nr strided
  /// loads spanning nr cache lines. Fully dense packs never build it
  /// (stride 0), so the dense path pays nothing.
  [[nodiscard]] bool has_sample_major() const noexcept {
    return sm_stride_ != 0;
  }
  [[nodiscard]] const std::uint64_t* sample_major() const noexcept {
    return sm_ptr_;
  }
  /// Words per sample-major row (0 when the transpose was not built).
  [[nodiscard]] std::size_t sample_major_stride() const noexcept {
    return sm_stride_;
  }

  /// The sparse columns' index lists with every entry pre-multiplied by
  /// sample_major_stride() (same CSR offsets as sparse_columns().offset).
  /// The gather's critical path is entry-load → scale → word-load; baking
  /// the scale in at pack time takes the multiply latency off every
  /// address. Valid against THIS pack's transpose stride only — the tile
  /// dispatcher falls back to the unscaled lists for cross-matrix partners
  /// of a different stride. Null when the transpose was not built.
  [[nodiscard]] const std::uint32_t* scaled_index() const noexcept {
    return scaled_ptr_;
  }

 private:
  struct Side {
    std::size_t r = 0;        ///< register blocking (0 = side not packed)
    std::size_t slivers = 0;  ///< ceil(n_snps / r)
    std::vector<std::size_t> panel_offset;  ///< word offset of each k panel
    AlignedBuffer<std::uint64_t> data;      ///< empty for external payloads
    const std::uint64_t* ptr = nullptr;     ///< payload (owned or external)
    std::size_t words = 0;                  ///< payload extent in words
  };

  void pack_side(const BitMatrixView& m, Side& side, std::size_t r,
                 unsigned threads);
  /// Fill the plan-implied sliver/panel geometry of a side; returns the
  /// total payload words (identical for owned and external storage).
  std::size_t init_side_layout(Side& side, std::size_t r) const;
  /// Index lists (written with their prescaled copy) and sample-major
  /// transpose, for a pack whose classification found sparse columns.
  void build_sparse_side(const BitMatrixView& m, unsigned threads);
  [[nodiscard]] std::vector<std::uint8_t> sliver_flags(std::size_t r) const;
  [[nodiscard]] PackedPanelView side_panel(const Side& side, std::size_t p,
                                           std::size_t sliver_begin,
                                           std::size_t slivers) const;

  GemmPlan plan_;
  std::size_t n_snps_ = 0;
  std::size_t n_words_ = 0;
  std::size_t n_samples_ = 0;
  std::size_t kc_ = 0;
  std::size_t panels_ = 0;
  bool b_shares_a_ = false;
  Side a_;
  Side b_;
  SparseColumns sparse_;
  std::vector<std::uint8_t> a_sliver_sparse_;  ///< mr-grid, empty when none
  std::vector<std::uint8_t> b_sliver_sparse_;  ///< nr-grid (A's when shared)
  bool hybrid_ = false;
  AlignedBuffer<std::uint64_t> sample_major_;  ///< samples × sm_stride_ words
  std::size_t sm_stride_ = 0;                  ///< 0 = transpose not built
  AlignedBuffer<std::uint32_t> scaled_index_;  ///< index × sm_stride_
  const std::uint64_t* sm_ptr_ = nullptr;      ///< transpose (owned/external)
  const std::uint32_t* scaled_ptr_ = nullptr;  ///< prescaled lists (ditto)
};

/// Reconstruct the row-major bit matrix from a pack's slivers — the exact
/// inverse of pack_panel over every k panel (reading the A side when
/// materialized, else the B side; padding rows and words are dropped).
/// ShardStore::verify_shard_popcounts uses it to recount the rows of a
/// mapped dense shard (which persists no transpose) without the source.
[[nodiscard]] BitMatrix unpack_packed(const PackedBitMatrix& p);

/// Guard helper for drivers accepting a caller-supplied packed operand:
/// the packed copy must describe a matrix of the same shape as `m` (the
/// caller is responsible for it actually being packed from the same data).
void expect_packed_matches(const PackedBitMatrix& p, const BitMatrixView& m);

/// Driver helper: pick the packed operand for a call site. A caller-
/// supplied pack wins (shape-checked against `m`; the caller must have
/// built it from the same data with the same GemmConfig). Otherwise `m` is
/// packed into `own` for `cfg` (a team pack when threads > 1) and that pack
/// is returned.
const PackedBitMatrix& resolve_packed(const BitMatrixView& m,
                                      const GemmConfig& cfg,
                                      const PackedBitMatrix* supplied,
                                      PackSides sides,
                                      std::optional<PackedBitMatrix>& own,
                                      unsigned threads = 1);

}  // namespace ldla
