#include "core/gemm/sparse.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>
#include <utility>

#include "core/popcount.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

namespace ldla {
namespace {

// Mask of the bits of a row's last word that hold samples.
std::uint64_t tail_mask(std::size_t n_words, std::size_t n_samples) {
  const std::size_t bits = n_samples - (n_words - 1) * 64;
  return bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

// Writes one column's list to [out, end) — the ascending indices of the
// set bits of row ^ flip — and each index times `scale` to the parallel
// slots of `scaled`. The slot size comes from the column's popcount, so
// the walk stops as soon as the slot is full; for a complement list that
// is also what keeps the tail word's padding bits, set in ~row but sorting
// after every real sample, out of the list. A mask of the nonzero words of
// each 64-word chunk drives the walk, so a zero word costs one compare and
// no branch. The first entry of a visited word is written unconditionally
// — a word with one set bit, most words of a rare column, takes no branch
// — and only multi-bit words loop; the slot is not full, so that write
// stays inside it and a later entry overwrites it if it was not a real
// one.
void extract_row(const std::uint64_t* row, std::size_t n_words,
                 std::uint64_t flip, std::uint32_t* out,
                 const std::uint32_t* end, std::uint32_t* scaled,
                 std::uint32_t scale) {
  for (std::size_t w0 = 0; w0 < n_words && out != end; w0 += 64) {
    const std::size_t chunk = std::min<std::size_t>(64, n_words - w0);
    std::uint64_t nonzero = 0;
    for (std::size_t k = 0; k < chunk; ++k) {
      nonzero |= static_cast<std::uint64_t>((row[w0 + k] ^ flip) != 0) << k;
    }
    while (nonzero != 0 && out != end) {
      const std::size_t w = w0 + static_cast<std::size_t>(
                                     std::countr_zero(nonzero));
      nonzero &= nonzero - 1;
      std::uint64_t bits = row[w] ^ flip;
      const auto base = static_cast<std::uint32_t>(w * 64);
      const std::ptrdiff_t count =
          std::min<std::ptrdiff_t>(std::popcount(bits), end - out);
      std::uint32_t i =
          base + static_cast<std::uint32_t>(std::countr_zero(bits));
      out[0] = i;
      scaled[0] = i * scale;
      for (std::ptrdiff_t e = 1; e < count; ++e) {
        bits &= bits - 1;
        i = base + static_cast<std::uint32_t>(std::countr_zero(bits));
        out[e] = i;
        scaled[e] = i * scale;
      }
      out += count;
      scaled += count;
    }
  }
}

}  // namespace

SparseColumns classify_popcounts(std::vector<std::uint32_t> popcount,
                                 std::size_t n_samples,
                                 std::size_t threshold) {
  SparseColumns sc;
  sc.threshold = threshold;
  sc.n_samples = n_samples;
  const std::size_t n = popcount.size();
  sc.popcount = std::move(popcount);
  sc.kind.assign(n, ColumnKind::kDense);
  sc.offset.assign(n + 1, 0);
  if (threshold == 0) return sc;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pc = sc.popcount[i];
    LDLA_ASSERT(pc <= n_samples);
    sc.kind[i] = column_kind(pc, n_samples, threshold);
    std::uint64_t len = 0;
    if (sc.kind[i] == ColumnKind::kList) {
      len = pc;
    } else if (sc.kind[i] == ColumnKind::kComplement) {
      len = n_samples - pc;
    }
    if (sc.kind[i] != ColumnKind::kDense) ++sc.sparse_count;
    sc.offset[i + 1] = sc.offset[i] + len;
  }
  return sc;
}

SparseColumns classify_sparse_columns(const BitMatrixView& m,
                                      std::size_t threshold,
                                      unsigned threads) {
  std::vector<std::uint32_t> popcount(m.n_snps);
  if (m.n_snps != 0 && m.n_words != 0) {
    // Resolve the backend once — per-row kAuto re-resolution was
    // measurable across the million-row packs the shard ingester feeds
    // through here.
    const PopcountMethod pm = resolve_popcount_method();
    const std::uint64_t padding = ~tail_mask(m.n_words, m.n_samples);
    run_split(m.n_snps, threads, [&](Range rows) {
      for (std::size_t i = rows.begin; i < rows.end; ++i) {
        const std::uint64_t* row = m.row(i);
        // Clean padding makes every list exactly its popcount-derived size.
        LDLA_EXPECT((row[m.n_words - 1] & padding) == 0,
                    "row padding bits past n_samples must be zero");
        popcount[i] = static_cast<std::uint32_t>(popcount_words(
            std::span<const std::uint64_t>(row, m.n_words), pm));
      }
    });
  }
  return classify_popcounts(std::move(popcount), m.n_samples, threshold);
}

void extract_sparse_lists(const BitMatrixView& m, SparseColumns& sc,
                          std::uint32_t* scaled, std::uint32_t scale,
                          unsigned threads) {
  LDLA_EXPECT(sc.kind.size() == m.n_snps && sc.offset.size() == m.n_snps + 1,
              "sparse classification does not match the matrix");
  sc.index.resize(sc.offset.back());
  if (sc.sparse_count == 0) return;
  std::uint32_t* index = sc.index.data();
  run_split(m.n_snps, threads, [&](Range rows) {
    for (std::size_t i = rows.begin; i < rows.end; ++i) {
      if (sc.kind[i] == ColumnKind::kDense) continue;
      const std::uint64_t flip =
          sc.kind[i] == ColumnKind::kComplement ? ~std::uint64_t{0} : 0;
      extract_row(m.row(i), m.n_words, flip, index + sc.offset[i],
                  index + sc.offset[i + 1], scaled + sc.offset[i], scale);
    }
  });
}

SparseColumns build_sparse_columns(const BitMatrixView& m,
                                   std::size_t threshold) {
  SparseColumns sc = classify_sparse_columns(m, threshold);
  std::vector<std::uint32_t> scaled(sc.offset.back());
  extract_sparse_lists(m, sc, scaled.data(), 1);
  return sc;
}

}  // namespace ldla
