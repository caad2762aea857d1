// Persistent packed operand: the whole SNP matrix pre-packed once into the
// micro-panel layout the kernels consume, keyed to a GemmPlan.
//
// Every count driver runs one GotoBLAS nest over packed operands. For the
// paper's rank-k genomic shapes and for windowed workloads (decay profiles,
// omega scans, haplotype blocks) the same matrix is multiplied many times,
// so the pack is hoisted out of the nest: pack once per dataset (or once
// per call, by resolve_packed), then every driver reads immutable slivers.
//
// One representation per sliver. The columns are classified before
// anything is packed (sparse.hpp): a sliver whose real rows are all index
// lists is stored as its lists only, and every other sliver as dense
// words. Each side keeps a sliver -> slot table; the dense slivers fill
// the slots in sliver order, and an all-sparse sliver has no slot.
//
// Layout: the k dimension is split into the plan's kc-word panels. Within a
// panel every dense sliver (group of r rows, r = mr for the A side, nr for
// the B side) is stored contiguously in exactly the pack_panel layout, in
// its slot, so a PackedPanelView over any sliver range aliases the
// persistent buffer with zero copying and resolves each sliver through the
// slot table. When mr == nr one copy serves both operand sides. Memory
// cost per side: dense slivers * r * ceil(k/ku)*ku words (the bit matrix
// itself for a pack that classified nothing sparse), plus the lists and
// the compact sample-major transpose of a pack that did.
//
// Storage can be owned (packed here from a BitMatrixView) or adopted from
// caller-managed memory via from_external(): the shard store (io/
// shard_store.hpp) persists exactly this layout on disk and memory-maps it
// back, so a mapped shard is consumed by every packed/fused/nest driver
// with zero copy. The large payloads (dense slivers, sample-major
// transpose) alias the external memory; the sparse columns come in
// classified, and the rest (slot tables, sliver flags, the hybrid switch,
// the prescaled lists) is derived here by the code an owned pack runs.
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

/// The compact sample-major transpose the list×dense gathers read: for
/// every kept 8-row group (one holding a dense column, so every dense
/// sliver of either grid lies in one), one byte per sample — bit b of it is
/// that sample's state in row 8g + b (zero past the SNP count). Sample s's
/// bytes are at bytes + s * row_bytes; group g's byte is at offset
/// group_slot[g] within them. A pack with sparse columns needs mr and nr
/// to divide 8 (every registered kernel's do), so a sliver's rows never
/// straddle two bytes.
struct SampleMajor {
  std::vector<std::uint32_t> group_slot;  ///< per 8-row group; kNoSlot: dropped
  std::size_t row_bytes = 0;              ///< kept groups (bytes per sample)
  AlignedBuffer<std::uint8_t> owned;      ///< empty when adopted
  const std::uint8_t* bytes = nullptr;    ///< samples × row_bytes

  /// The byte column of the group holding `row`, which must be kept.
  [[nodiscard]] const std::uint8_t* column(std::size_t row) const {
    LDLA_BOUNDS_CHECK(row / 8 < group_slot.size() &&
                          group_slot[row / 8] != kNoSlot,
                      "transpose group was not kept");
    return bytes + group_slot[row / 8];
  }
};

/// Slot of every r-row sliver of columns classified `kind`: an all-sparse
/// sliver (every real row kList or kComplement) gets kNoSlot, the others
/// count up from 0 in sliver order; `dense` receives their number. With
/// r = 8 this is the transpose's group table. Owned and adopted packs
/// size their payloads through it; the shard index parser counts the same
/// slivers in one pass over column_kind (io/shard_store.cpp).
std::vector<std::uint32_t> sliver_slots(const std::vector<ColumnKind>& kind,
                                        std::size_t r, std::size_t& dense);

/// Descriptor for adopting an externally materialized pack (the mmap'd
/// shard store): only what cannot be re-derived. Payload pointers must be
/// 64-byte aligned, immutable, and outlive the PackedBitMatrix; `sparse`
/// (classified by classify_popcounts, lists filled in) is moved in. The
/// payload sizes follow from the kinds: a side holds its dense slivers
/// only (b_data is read only when mr != nr; B shares A otherwise), and the
/// transpose (samples × kept groups bytes) is present when a column is
/// sparse. A payload whose derived size is zero must be null.
struct ExternalPack {
  GemmPlan plan;
  std::size_t n_snps = 0;
  std::size_t n_words = 0;
  std::size_t n_samples = 0;
  const std::uint64_t* a_data = nullptr;
  const std::uint64_t* b_data = nullptr;
  SparseColumns sparse;
  const std::uint8_t* sample_major = nullptr;
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
  /// matrix and plan would hold, so the drivers cannot tell the difference:
  /// slot tables, sliver flags, hybrid_dispatch() and the prescaled lists
  /// are derived from the sparse columns exactly as an owned pack derives
  /// them. Contract-checks plan resolution, payload alignment, the sparse
  /// metadata sizes, and that each payload is present exactly when its
  /// derived size is nonzero.
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

  /// Dense words held across both sides (memory footprint; external
  /// payloads count the words they alias).
  [[nodiscard]] std::size_t packed_words() const noexcept {
    return a_.words + b_.words;
  }

  // Raw payload access for the shard-store writer (io/shard_store.cpp):
  // the serialized sections are exactly these spans. b_data() is null when
  // the B side shares A's storage or was not materialized; a side with no
  // dense sliver has no payload.
  [[nodiscard]] const std::uint64_t* a_data() const noexcept { return a_.ptr; }
  [[nodiscard]] std::size_t a_data_words() const noexcept { return a_.words; }
  [[nodiscard]] const std::uint64_t* b_data() const noexcept { return b_.ptr; }
  [[nodiscard]] std::size_t b_data_words() const noexcept { return b_.words; }

  /// Slot tables (sliver_slots) of the A (mr) and B (nr) grids; empty for
  /// a side the pack did not materialize. B is A's when they share.
  [[nodiscard]] const std::vector<std::uint32_t>& a_sliver_slots()
      const noexcept {
    return a_.slot;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& b_sliver_slots()
      const noexcept {
    return b_shares_a_ ? a_.slot : b_.slot;
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
  /// complement-classified; it then has no dense words, and every register
  /// tile it meets goes to the list kernels. Padding rows in the last group
  /// are all-zero and never consulted, so a partial group is classified by
  /// its real rows alone. Returns false past the sliver grid and for grids
  /// the pack did not materialize.
  [[nodiscard]] bool a_sliver_sparse(std::size_t s) const noexcept {
    return s < a_.slot.size() && a_.slot[s] == kNoSlot;
  }
  [[nodiscard]] bool b_sliver_sparse(std::size_t s) const noexcept {
    const std::vector<std::uint32_t>& slot = b_sliver_slots();
    return s < slot.size() && slot[s] == kNoSlot;
  }

  /// True when the pack carries its compact sample-major transpose (see
  /// SampleMajor): built whenever any column classified sparse, since any
  /// dense sliver of such a pack may meet a list — its own or, in a cross
  /// call, a partner's. A pack that classified nothing sparse has none; a
  /// cross call whose partner has all-sparse slivers builds one for it
  /// (sample_major_from_slivers), so the dense path pays nothing.
  [[nodiscard]] bool has_sample_major() const noexcept {
    return !sm_.group_slot.empty();
  }
  [[nodiscard]] const SampleMajor& sample_major() const noexcept {
    return sm_;
  }
  /// Bytes per sample row of the transpose (its kept groups; 0 when it was
  /// not built or no group holds a dense column).
  [[nodiscard]] std::size_t sample_major_stride() const noexcept {
    return sm_.row_bytes;
  }

  /// The sparse columns' index lists with every entry pre-multiplied by
  /// sample_major_stride() (same CSR offsets as sparse_columns().offset).
  /// The gather's critical path is entry-load → scale → byte-load; baking
  /// the scale in at pack time takes the multiply latency off every
  /// address. Valid against a transpose of THIS stride only — the tile
  /// dispatcher falls back to the unscaled lists for cross-matrix partners
  /// of a different stride. Null when the transpose was not built.
  [[nodiscard]] const std::uint32_t* scaled_index() const noexcept {
    return scaled_index_.data();
  }

 private:
  struct Side {
    std::size_t r = 0;                ///< register blocking (0 = not packed)
    std::vector<std::uint32_t> slot;  ///< sliver_slots(kinds, r)
    std::size_t dense = 0;            ///< dense slivers (slots in use)
    std::vector<std::size_t> panel_offset;  ///< word offset of each k panel
    AlignedBuffer<std::uint64_t> data;      ///< empty for external payloads
    const std::uint64_t* ptr = nullptr;     ///< payload (owned or external)
    std::size_t words = 0;                  ///< payload extent in words
  };

  void pack_side(const BitMatrixView& m, Side& side, std::size_t r,
                 unsigned threads);
  /// Fill the slot table and panel geometry of a side from the kinds;
  /// returns the payload words (identical for owned and external storage).
  std::size_t init_side_layout(Side& side, std::size_t r) const;
  /// Index lists (written with their prescaled copy) and the compact
  /// transpose, for a pack whose classification found sparse columns.
  void build_sparse_side(const BitMatrixView& m, unsigned threads);
  /// hybrid_ from the materialized sides' slot tables.
  void derive_hybrid();
  /// The transpose's group table and stride from the kinds (contract-
  /// checking the 32-bit list addressing before any allocation), and the
  /// prescaled lists' storage.
  void init_sparse_side();
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
  bool hybrid_ = false;
  SampleMajor sm_;                             ///< group_slot empty: not built
  AlignedBuffer<std::uint32_t> scaled_index_;  ///< index × sm_.row_bytes
};

/// The compact transpose of a pack that carries none (nothing classified
/// sparse, so every group is kept), built from its dense slivers: what a
/// cross call gathers a partner's lists against.
[[nodiscard]] SampleMajor sample_major_from_slivers(const PackedBitMatrix& p);

/// Reconstruct the row-major bit matrix from a pack — the exact inverse of
/// pack_panel over every k panel for the dense slivers (reading the A side
/// when materialized, else the B side; padding rows and words are
/// dropped), and the index lists for the rows of all-sparse slivers.
/// ShardStore::verify_shard_popcounts uses it to recount and cross-check a
/// mapped shard without the source; cross calls use it to transpose a
/// partner that carries no transpose.
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
