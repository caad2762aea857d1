// MAF-adaptive sparse columns: pack-time classification of SNP rows into
// dense / index-list / complement-list representations (DESIGN.md §4.6).
//
// Real cohorts are dominated by rare variants, so most rows of the bit
// matrix are nearly all-zero and the dense popcount-GEMM spends almost
// every AND+POPCNT on zero words. Following the low-allele-count dispatch
// proven in tomahawk and PLINK 2, the packer records every column's set-bit
// count (it already touches every word) and, for columns whose allele
// count — or zero count, for the near-all-ones complement trick — falls
// within GemmConfig::sparse_threshold, extracts a sorted sample-index list.
// The classification runs before anything is packed, and a sliver whose
// real rows all classify sparse is stored as its lists only: for those
// rows the lists replace the dense words. A column inside a sliver that
// keeps its dense words still gets its list (the kinds and CSR layout are
// per column), though no route reads it there.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/bit_matrix.hpp"
#include "util/contract.hpp"

namespace ldla {

/// Pack-time classification of one SNP row (a "column" of the cohort).
enum class ColumnKind : std::uint8_t {
  kDense = 0,       ///< dense words only (allele count above threshold)
  kList = 1,        ///< sorted indices of the SET bits (rare allele)
  kComplement = 2,  ///< sorted indices of the ZERO bits (near-fixed allele)
};

/// Per-column popcounts plus sorted index lists for the columns the
/// threshold classifies as sparse. Popcounts are recorded for every column
/// unconditionally — the complement algebra of the mixed list×dense kernel
/// needs the dense side's allele count too. Lists are CSR-concatenated:
/// column i owns index[offset[i], offset[i+1]).
struct SparseColumns {
  std::size_t threshold = 0;  ///< resolved allele-count threshold (0 = off)
  std::size_t n_samples = 0;
  std::vector<std::uint32_t> popcount;  ///< set bits per column (always)
  std::vector<ColumnKind> kind;         ///< per-column representation
  std::vector<std::uint64_t> offset;    ///< CSR offsets into `index`
  std::vector<std::uint32_t> index;     ///< concatenated sorted lists
  std::size_t sparse_count = 0;         ///< columns not kDense

  [[nodiscard]] bool enabled() const noexcept { return threshold != 0; }
  [[nodiscard]] const std::uint32_t* list(std::size_t i) const {
    LDLA_BOUNDS_CHECK(i + 1 < offset.size(), "sparse column out of range");
    return index.data() + offset[i];
  }
  [[nodiscard]] std::size_t list_size(std::size_t i) const {
    LDLA_BOUNDS_CHECK(i + 1 < offset.size(), "sparse column out of range");
    return static_cast<std::size_t>(offset[i + 1] - offset[i]);
  }
};

/// The popcount → kind rule, the one place it lives: with `threshold` 0
/// (sparse dispatch off) every column is kDense; otherwise a column whose
/// popcount is within `threshold` is kList, one whose zero count is, is
/// kComplement (kList wins when both qualify, threshold >= n_samples/2),
/// the rest kDense. `popcount` must be <= n_samples.
[[nodiscard]] inline ColumnKind column_kind(std::uint64_t popcount,
                                            std::uint64_t n_samples,
                                            std::uint64_t threshold) {
  if (threshold == 0) return ColumnKind::kDense;
  if (popcount <= threshold) return ColumnKind::kList;
  if (n_samples - popcount <= threshold) return ColumnKind::kComplement;
  return ColumnKind::kDense;
}

/// Classifies every column by column_kind and fills kind, the exact CSR
/// layout (each list sized from its popcount) and sparse_count; `index` is
/// left empty. Every popcount must be <= n_samples. Both an owned pack
/// (through classify_sparse_columns) and a mapped shard (ShardStore)
/// classify here; the shard index parser counts slivers by column_kind
/// alone.
SparseColumns classify_popcounts(std::vector<std::uint32_t> popcount,
                                 std::size_t n_samples, std::size_t threshold);

/// Classification pass: count every column's set bits (`threads` > 1
/// splits the rows across a global_pool() team) and classify them with
/// classify_popcounts. Rows must have clean padding (bits past n_samples
/// zero); a dirty row is a contract violation.
SparseColumns classify_sparse_columns(const BitMatrixView& m,
                                      std::size_t threshold,
                                      unsigned threads = 1);

/// Extraction pass over a classify_sparse_columns result for the same `m`:
/// sizes `sc.index` to offset.back() and writes every list straight into
/// its CSR slot — sorted set-bit (kList) or zero-bit (kComplement) indices
/// — and each entry times `scale` into the parallel slot of `scaled`
/// (offset.back() entries) in the same pass. Only nonzero words are
/// visited, and a row's walk ends when its slot is full, so the padding
/// bits of a complemented tail word never enter a list. `threads` splits
/// rows as above.
void extract_sparse_lists(const BitMatrixView& m, SparseColumns& sc,
                          std::uint32_t* scaled, std::uint32_t scale,
                          unsigned threads = 1);

/// Both passes, one thread; the prescaled copy is discarded.
SparseColumns build_sparse_columns(const BitMatrixView& m,
                                   std::size_t threshold);

}  // namespace ldla
