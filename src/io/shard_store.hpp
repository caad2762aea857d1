// On-disk shard store: PackedBitMatrix shards persisted in the exact
// micro-panel sliver layout and memory-mapped back for zero-copy compute.
//
// Every driver consumes packed slivers through PackedBitMatrix, so packing
// is the natural persistence boundary: write_shard_store() splits the SNP
// rows into shards, packs each one with a single resolved GemmPlan, and
// serializes byte-for-byte the payloads that cannot be re-derived: the
// dense slivers (an all-sparse sliver is stored as its lists only), the
// per-column popcounts, the sparse index lists and the compact
// sample-major transpose of the 8-row groups that hold a dense column
// (DESIGN.md §4.6). Packing cost is paid once per dataset, at ingest
// (tools/ldla_ingest.cpp); at compute time the store is mmap'd read-only
// and each shard is adopted into a PackedBitMatrix via from_external(),
// aliasing the slivers and the transpose with zero copy — the packed /
// fused / nest drivers cannot tell a mapped shard from an owned pack.
// Everything else a pack holds is derived at materialize time by the
// packer's own code: column kinds and CSR offsets from the popcounts
// (classify_popcounts), slot tables, sliver flags and the prescaled lists
// in from_external().
//
// Residency model: the store is the only layer allowed to issue
// mmap/madvise/mincore syscalls (lint-enforced). A shard becomes resident
// when materialize()d — the payload pages are explicitly faulted in under
// the traced io phase (io_bytes_read counts exactly the payload bytes) —
// and leaves residency on release() (MADV_DONTNEED drops the pages from
// this process). resident_bytes() is the store's own accounting of
// materialized payload bytes — the deterministic quantity the streaming
// driver budgets against; probe_resident_bytes() asks the kernel (mincore)
// for the actual page residency of the mapping as a cross-check. The
// heap side of a materialized shard (its copied popcounts and lists plus
// the derived kinds, CSR offsets, slot tables and prescaled lists: about
// 16 bytes per row and 8 per list entry) does NOT count toward
// shard_bytes() or resident_bytes(), which count exactly the mapped bytes
// a shard faults in: the dense slivers and the compact transpose, which
// for a rare-variant shard are a fraction of its rows' bits.
//
// Format hardening: the header/index parser is exposed over a raw byte
// span (parse_shard_index) so the fuzz harness drives it directly, and it
// rejects forged inputs the way io/ldm_binary.cpp does — bad magic,
// truncated maps, extents outside the file, overlapping extents, a B side
// on a square tile, a popcount above the sample count, absurd counts — all
// via ParseError. Sliver and transpose extents are not recorded at all:
// the parser derives them from each shard's popcounts under the plan's
// threshold, through the packer's own rules (dense slivers per side, kept
// transpose groups). An LDLASH01 store (which persisted the derived
// metadata too) or LDLASH02 store (dense words for every sliver, a
// full-width transpose) is rejected with the ldla_ingest remedy.
//
// Plan check: the LDLASH03 header pins the (arch, mr, nr, ku, kc) geometry
// the slivers were packed with, and plan() is always that stored plan, so
// every shard aliases the mapping and resident_bytes() is exact. open()
// rejects a store whose plan names a kernel variant this build never
// compiled or this machine cannot run; the remedy is to re-ingest it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/bit_matrix.hpp"
#include "core/gemm/config.hpp"
#include "core/gemm/packed_bit_matrix.hpp"
#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace ldla {

/// Directory record of one shard (8 × u64 on disk, in this order): byte
/// offsets (from file start, 64-byte aligned) of its at most five sections,
/// plus the list-entry count. Offset 0 marks an absent section; a section
/// is present exactly when its derived size is nonzero. Section sizes are
/// not recorded: parse_shard_index derives them from the popcounts (the
/// pack's own classification, slot and layout rules) into the trailing
/// fields.
struct ShardRecord {
  std::uint64_t row_begin = 0;  ///< first SNP row (global index)
  std::uint64_t row_end = 0;    ///< one past the last SNP row
  std::uint64_t a_off = 0;      ///< A-side slivers (mr grid)
  std::uint64_t b_off = 0;      ///< B-side slivers; present iff mr != nr
  std::uint64_t pop_off = 0;    ///< per-column popcounts (u32 × rows)
  std::uint64_t index_off = 0;  ///< concatenated index lists (u32 × count)
  std::uint64_t index_count = 0;  ///< the popcount-derived list total
  std::uint64_t sm_off = 0;      ///< compact sample-major transpose
  // Derived by parse_shard_index, not stored:
  std::uint64_t a_bytes = 0;   ///< dense mr-slivers
  std::uint64_t b_bytes = 0;   ///< dense nr-slivers (0 when mr == nr)
  std::uint64_t sm_bytes = 0;  ///< samples × kept groups (0: no sparse column)

  [[nodiscard]] std::uint64_t rows() const noexcept {
    return row_end - row_begin;
  }
};

/// Validated index of a shard store file.
struct ShardIndex {
  std::uint64_t n_snps = 0;
  std::uint64_t n_words = 0;
  std::uint64_t n_samples = 0;
  GemmPlan plan;
  std::uint64_t file_bytes = 0;
  std::vector<ShardRecord> shards;
};

/// Parse and validate a shard-store header + directory from a byte span
/// (the mmap'd file, or fuzzer-supplied bytes). Throws ParseError on any
/// malformed input; on success every section extent (recorded offset,
/// size derived from the popcounts) is in-bounds, 64-byte aligned and
/// non-overlapping, and every popcount is at most the sample count. The
/// other payload *contents* are validated lazily at shard materialization
/// (ShardStore::shard).
ShardIndex parse_shard_index(const std::uint8_t* data, std::size_t size);

/// Split `m` into shards of `rows_per_shard` SNP rows, pack each with the
/// plan `cfg` resolves to, and write the store to `path`. Packing runs
/// shard-at-a-time, so ingest memory is O(one shard), independent of the
/// matrix size. `threads` > 1 team-packs each shard on global_pool().
void write_shard_store(const std::string& path, const BitMatrixView& m,
                       const GemmConfig& cfg, std::size_t rows_per_shard,
                       unsigned threads = 1);

/// Memory-mapped, lazily materialized shard store (see file comment for
/// the residency model). Thread-safety: materialize/shard/release/
/// resident_bytes may be called concurrently (the streaming driver's
/// prefetch task materializes shards while compute runs); each shard's
/// PackedBitMatrix address is stable from materialization until its
/// release, and the caller must not release a shard another thread is
/// still computing from.
class ShardStore {
 public:
  ShardStore() = default;
  ~ShardStore();
  ShardStore(ShardStore&& other) noexcept;
  ShardStore& operator=(ShardStore&& other) noexcept;
  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  /// mmap `path` read-only and validate its index. Throws Error on I/O
  /// failure, ParseError on a malformed file, and rejects (Error naming the
  /// re-ingest remedy) stores whose plan names a kernel variant this build
  /// never compiled or this machine cannot run.
  static ShardStore open(const std::string& path);

  [[nodiscard]] std::size_t shards() const noexcept {
    return index_.shards.size();
  }
  [[nodiscard]] std::size_t snps() const noexcept { return index_.n_snps; }
  [[nodiscard]] std::size_t samples() const noexcept {
    return index_.n_samples;
  }
  [[nodiscard]] std::size_t words_per_snp() const noexcept {
    return index_.n_words;
  }
  /// The plan recorded in the LDLASH03 header; every shard materializes
  /// under it, aliasing the mapped slivers.
  [[nodiscard]] const GemmPlan& plan() const noexcept { return index_.plan; }
  [[nodiscard]] const ShardRecord& record(std::size_t i) const;
  [[nodiscard]] std::size_t shard_row_begin(std::size_t i) const {
    return record(i).row_begin;
  }
  [[nodiscard]] std::size_t shard_rows(std::size_t i) const {
    return record(i).rows();
  }

  /// Payload bytes of shard `i` (what materialization makes resident).
  [[nodiscard]] std::size_t shard_bytes(std::size_t i) const;
  [[nodiscard]] std::size_t total_payload_bytes() const noexcept {
    return total_payload_bytes_;
  }
  [[nodiscard]] std::size_t max_shard_bytes() const noexcept {
    return max_shard_bytes_;
  }

  /// Global per-SNP derived-allele counts, concatenated from the shards'
  /// persisted popcounts — the streaming driver builds its StatTables from
  /// these without ever holding the bit matrix.
  [[nodiscard]] std::vector<std::uint64_t> allele_counts() const;

  /// Hint the kernel to read shard `i`'s pages ahead (MADV_WILLNEED).
  /// Asynchronous; does not materialize and touches no counters.
  void prefetch(std::size_t i) const;

  /// Materialize shard `i`: adopt the mapped payloads into a
  /// PackedBitMatrix, deriving its sparse metadata, and explicitly fault
  /// its pages in under the io phase (counted in io_bytes_read).
  /// Idempotent; returns the shard. Throws ParseError on corrupt contents:
  /// a list-entry count other than the popcount-derived total, or a list
  /// entry out of range or out of order.
  const PackedBitMatrix& shard(std::size_t i);

  /// Was shard `i` materialized (and not yet released)?
  [[nodiscard]] bool is_materialized(std::size_t i) const;

  /// Integrity cross-check: rebuild shard `i`'s rows from its payloads
  /// (unpack_packed: dense slivers, lists for the all-sparse ones) and
  /// compare the persisted popcounts, the lists of sparse columns inside
  /// dense slivers and the kept transpose groups against them. A list of
  /// a column whose group holds no dense column is its row's only copy,
  /// so nothing can contradict it. Returns false on any disagreement;
  /// throws what materialization throws. Does not materialize into the
  /// resident set.
  [[nodiscard]] bool verify_shard_popcounts(std::size_t i) const;

  /// Drop shard `i`'s wrapper and advise the kernel to reclaim its pages
  /// (MADV_DONTNEED). No-op when not materialized.
  void release(std::size_t i);

  /// Store-accounted residency: total payload bytes of currently
  /// materialized shards (deterministic; what the stream budget bounds).
  [[nodiscard]] std::size_t resident_bytes() const;

  /// Kernel-reported residency of the mapping (mincore), in bytes.
  [[nodiscard]] std::size_t probe_resident_bytes() const;

 private:
  void unmap() noexcept;
  void touch_extent(std::uint64_t off, std::uint64_t bytes) const;
  [[nodiscard]] std::unique_ptr<PackedBitMatrix> materialize(
      std::size_t i) const;

  const std::uint8_t* map_ = nullptr;
  std::size_t map_size_ = 0;
  ShardIndex index_;
  std::vector<std::size_t> shard_bytes_;
  std::size_t total_payload_bytes_ = 0;
  std::size_t max_shard_bytes_ = 0;

  mutable Mutex mu_;
  std::vector<std::unique_ptr<PackedBitMatrix>> wrappers_ LDLA_GUARDED_BY(mu_);
  std::size_t resident_ LDLA_GUARDED_BY(mu_) = 0;
};

/// Convenience: ShardStore::open (the PUBLIC_API manifest entry point).
ShardStore open_shard_store(const std::string& path);

}  // namespace ldla
