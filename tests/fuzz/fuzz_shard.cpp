// Fuzz harness for the shard store: the header/directory parser and shard
// materialization.
//
// parse_shard_index consumes an attacker-controlled byte span (the mmap'd
// file) and its output drives pointer arithmetic into the mapping, so the
// invariants checked here on ACCEPTED inputs are exactly the ones the
// ShardStore relies on for memory safety: every section extent (recorded
// offset, size re-derived here from the shard's popcounts) in-bounds and
// aligned, extents pairwise disjoint, the row partition contiguous over
// [0, n_snps), and no B side on a square register tile.
//
// An accepted input is then opened as a store (through a per-process temp
// file: ShardStore maps paths) and every shard materialized, so the content
// checks that live only in materialize face the same inputs. A shard that
// materializes must hold what the kernels gather through unchecked: every
// list entry a sample index, ascending within its column, the prescaled
// copy equal to index × stride, and a transpose exactly when a column is
// sparse.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/bit_matrix.hpp"
#include "core/gemm/sparse.hpp"
#include "fuzz_target.hpp"
#include "io/shard_store.hpp"
#include "util/contract.hpp"

namespace {

void check_extent(std::vector<std::pair<std::uint64_t, std::uint64_t>>& spans,
                  std::uint64_t off, std::uint64_t bytes,
                  std::uint64_t file_bytes) {
  if (off == 0) return;
  ldla::fuzz::require(bytes != 0, "shard: present section with no bytes");
  ldla::fuzz::require(off % 64 == 0, "shard: misaligned extent");
  ldla::fuzz::require(off <= file_bytes && bytes <= file_bytes - off,
                      "shard: extent outside the file");
  spans.emplace_back(off, bytes);
}

/// Slivers of r rows (r = 8: transpose groups) holding a kDense column.
std::uint64_t dense_slivers(const ldla::SparseColumns& sc, std::uint64_t r) {
  std::uint64_t dense = 0;
  for (std::uint64_t s = 0; s * r < sc.kind.size(); ++s) {
    for (std::uint64_t i = s * r; i < std::min<std::uint64_t>(
                                          sc.kind.size(), s * r + r);
         ++i) {
      if (sc.kind[i] == ldla::ColumnKind::kDense) {
        ++dense;
        break;
      }
    }
  }
  return dense;
}

/// Words of one sliver side holding `slivers` dense slivers, walked panel
/// by panel as the pack lays them out (independent of the parser's closed
/// form). Bounded by the file size on accepted inputs.
std::uint64_t side_words(const ldla::ShardIndex& idx, std::uint64_t slivers,
                         std::uint64_t r) {
  const ldla::GemmPlan& p = idx.plan;
  const std::uint64_t k_padded = (idx.n_words + p.ku - 1) / p.ku * p.ku;
  const std::uint64_t kc = std::min<std::uint64_t>(p.kc_words, k_padded);
  std::uint64_t words = 0;
  for (std::uint64_t k0 = 0; k0 < idx.n_words; k0 += kc) {
    const std::uint64_t kcp =
        (std::min(kc, idx.n_words - k0) + p.ku - 1) / p.ku * p.ku;
    words += slivers * r * kcp;
  }
  return words;
}

const std::string& input_path() {
  static const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ldla_fuzz_shard_" + std::to_string(::getpid()) + ".ldshard"))
          .string();
  return path;
}

void check_pack(const ldla::PackedBitMatrix& pk, std::uint64_t rows) {
  const ldla::SparseColumns& sc = pk.sparse_columns();
  ldla::fuzz::require(pk.snps() == rows && sc.kind.size() == rows &&
                          sc.offset.size() == rows + 1 &&
                          sc.offset.back() == sc.index.size(),
                      "shard: sparse metadata does not cover the shard");
  ldla::fuzz::require(pk.has_sample_major() == (sc.sparse_count != 0),
                      "shard: transpose presence disagrees with the kinds");
  for (std::size_t c = 0; c < rows; ++c) {
    for (std::uint64_t e = sc.offset[c]; e < sc.offset[c + 1]; ++e) {
      ldla::fuzz::require(sc.index[e] < pk.samples() &&
                              (e == sc.offset[c] ||
                               sc.index[e - 1] < sc.index[e]),
                          "shard: list entry out of range or order");
      ldla::fuzz::require(
          !pk.has_sample_major() ||
              pk.scaled_index()[e] == sc.index[e] * pk.sample_major_stride(),
          "shard: prescaled entry differs from index x stride");
    }
  }
}

/// Open the accepted bytes as a store and materialize every shard; a
/// corrupt payload may throw ldla::Error from any shard.
void materialize_all(const std::uint8_t* data, std::size_t size) {
  {
    std::ofstream out(input_path(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    if (!out) ldla::fuzz::invariant_failure("shard: cannot write temp input");
  }
  try {
    ldla::ShardStore store = ldla::ShardStore::open(input_path());
    for (std::size_t i = 0; i < store.shards(); ++i) {
      try {
        check_pack(store.shard(i), store.shard_rows(i));
        (void)store.verify_shard_popcounts(i);
        store.release(i);
      } catch (const ldla::Error&) {
      }
    }
  } catch (const ldla::Error&) {
  }
  std::remove(input_path().c_str());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  try {
    const ldla::ShardIndex idx = ldla::parse_shard_index(data, size);

    ldla::fuzz::require(idx.file_bytes == size, "shard: file size mismatch");
    ldla::fuzz::require(!idx.shards.empty(), "shard: accepted empty store");
    ldla::fuzz::require(idx.n_words == ldla::words_for_bits(idx.n_samples),
                        "shard: words inconsistent with samples");

    std::uint64_t next_row = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
    for (const ldla::ShardRecord& rec : idx.shards) {
      ldla::fuzz::require(rec.row_begin == next_row && rec.row_end > next_row,
                          "shard: broken row partition");
      next_row = rec.row_end;
      const std::uint64_t rows = rec.rows();
      ldla::fuzz::require(rec.pop_off != 0, "shard: popcounts missing");
      ldla::fuzz::require(rec.b_off == 0 || idx.plan.mr != idx.plan.nr,
                          "shard: B side on a square register tile");
      check_extent(spans, rec.pop_off, rows * 4, idx.file_bytes);
      std::vector<std::uint32_t> pop(rows);
      std::memcpy(pop.data(), data + rec.pop_off, rows * 4);
      for (const std::uint32_t c : pop) {
        ldla::fuzz::require(c <= idx.n_samples,
                            "shard: popcount above the sample count");
      }
      const ldla::SparseColumns sc = ldla::classify_popcounts(
          std::move(pop), idx.n_samples, idx.plan.sparse_threshold);
      const std::uint64_t a_bytes =
          side_words(idx, dense_slivers(sc, idx.plan.mr), idx.plan.mr) * 8;
      const std::uint64_t b_bytes =
          idx.plan.mr == idx.plan.nr
              ? 0
              : side_words(idx, dense_slivers(sc, idx.plan.nr), idx.plan.nr) *
                    8;
      const std::uint64_t sm_bytes =
          sc.sparse_count == 0 ? 0 : idx.n_samples * dense_slivers(sc, 8);
      ldla::fuzz::require(rec.a_bytes == a_bytes && rec.b_bytes == b_bytes &&
                              rec.sm_bytes == sm_bytes,
                          "shard: derived extents disagree with the kinds");
      ldla::fuzz::require((rec.a_off != 0) == (a_bytes != 0) &&
                              (rec.b_off != 0) == (b_bytes != 0) &&
                              (rec.sm_off != 0) == (sm_bytes != 0),
                          "shard: section presence disagrees with its size");
      check_extent(spans, rec.a_off, a_bytes, idx.file_bytes);
      check_extent(spans, rec.b_off, b_bytes, idx.file_bytes);
      ldla::fuzz::require((rec.index_off != 0) == (rec.index_count != 0),
                          "shard: index lists disagree with their count");
      check_extent(spans, rec.index_off, rec.index_count * 4, idx.file_bytes);
      check_extent(spans, rec.sm_off, sm_bytes, idx.file_bytes);
    }
    ldla::fuzz::require(next_row == idx.n_snps,
                        "shard: partition does not cover the matrix");

    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      ldla::fuzz::require(spans[i - 1].first + spans[i - 1].second <=
                              spans[i].first,
                          "shard: overlapping extents");
    }
  } catch (const ldla::Error&) {
    return 0;
  }
  materialize_all(data, size);
  return 0;
}
