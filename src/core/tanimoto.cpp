#include "core/tanimoto.hpp"

#include <algorithm>

#include "core/detail/ld_stats_row.hpp"
#include "core/gemm/macro.hpp"
#include "core/popcount.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

namespace ldla {

namespace {

double tanimoto_from_counts(std::uint64_t p, std::uint64_t q,
                            std::uint64_t x) {
  const std::uint64_t denom = p + q - x;
  if (denom == 0) return 0.0;  // two empty fingerprints
  return static_cast<double>(x) / static_cast<double>(denom);
}

// The order of a top-k list: similarity descending, then index ascending.
bool ranks_before(const TanimotoHit& a, const TanimotoHit& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  return a.index < b.index;
}

std::vector<std::uint64_t> row_counts(const BitMatrix& m) {
  std::vector<std::uint64_t> c(m.snps());
  for (std::size_t i = 0; i < m.snps(); ++i) c[i] = m.derived_count(i);
  return c;
}

// Row conversion of a count tile (detail::tile_stats): Tanimoto of row
// fingerprint i against the tile's columns, from both sides' row counts.
auto similarity_rows(const std::vector<std::uint64_t>& ca,
                     const std::vector<std::uint64_t>& cb) {
  return [&ca, &cb](const CountTile& t, std::size_t i, std::size_t cols,
                    double* out) {
    const std::uint64_t p = ca[t.row_begin + i];
    const std::uint32_t* x = t.row(i);
    for (std::size_t j = 0; j < cols; ++j) {
      out[j] = tanimoto_from_counts(p, cb[t.col_begin + j], x[j]);
    }
  };
}

}  // namespace

double tanimoto_pair(const BitMatrix& a, std::size_t i, const BitMatrix& b,
                     std::size_t j) {
  LDLA_EXPECT(a.samples() == b.samples(), "fingerprint widths differ");
  const std::uint64_t p = a.derived_count(i);
  const std::uint64_t q = b.derived_count(j);
  const std::uint64_t x =
      popcount_and(a.row(i), b.row(j), PopcountMethod::kAuto);
  return tanimoto_from_counts(p, q, x);
}

LdMatrix tanimoto_matrix(const BitMatrix& fps, const GemmConfig& cfg) {
  const std::size_t n = fps.snps();
  LdMatrix out(n, n);
  if (n == 0) return out;

  // Eq. 7 is symmetric operation for operation, so the symmetric body's
  // mirrored canonical pairs are exact.
  const std::vector<std::uint64_t> counts = row_counts(fps);
  detail::symmetric_stats<1>(PackedBitMatrix::pack(fps.view(), cfg),
                             similarity_rows(counts, counts), out);
  return out;
}

LdMatrix tanimoto_cross_matrix(const BitMatrix& a, const BitMatrix& b,
                               const GemmConfig& cfg) {
  LDLA_EXPECT(a.samples() == b.samples(), "fingerprint widths differ");
  const std::size_t m = a.snps();
  const std::size_t n = b.snps();
  LdMatrix out(m, n);
  if (m == 0 || n == 0) return out;

  const std::vector<std::uint64_t> ca = row_counts(a);
  const std::vector<std::uint64_t> cb = row_counts(b);
  detail::cross_stats<1>(PackedBitMatrix::pack(a.view(), cfg, PackSides::kA),
                         PackedBitMatrix::pack(b.view(), cfg, PackSides::kB),
                         similarity_rows(ca, cb), out);
  return out;
}

std::vector<std::vector<TanimotoHit>> tanimoto_top_k(
    const BitMatrix& queries, const BitMatrix& database, std::size_t k,
    const GemmConfig& cfg, unsigned threads) {
  LDLA_EXPECT(queries.samples() == database.samples(),
              "fingerprint widths differ");
  LDLA_EXPECT(k > 0, "k must be positive");
  const std::size_t nq = queries.snps();
  const std::size_t nd = database.snps();
  std::vector<std::vector<TanimotoHit>> results(nq);
  if (nq == 0 || nd == 0) return results;
  if (threads == 0) threads = default_thread_count();

  const std::vector<std::uint64_t> cq = row_counts(queries);
  const std::vector<std::uint64_t> cd = row_counts(database);
  const PackedBitMatrix pq =
      PackedBitMatrix::pack(queries.view(), cfg, PackSides::kA, threads);
  const PackedBitMatrix pd =
      PackedBitMatrix::pack(database.view(), cfg, PackSides::kB, threads);

  // Each query's list is a heap under ranks_before, so its front is the
  // worst hit kept; a candidate enters only by ranking before it.
  const CountTileSink keep = [&](const CountTile& t) {
    for (std::size_t i = 0; i < t.rows; ++i) {
      const std::size_t qi = t.row_begin + i;
      std::vector<TanimotoHit>& heap = results[qi];
      const std::uint32_t* x = t.row(i);
      for (std::size_t j = 0; j < t.cols; ++j) {
        const std::size_t dj = t.col_begin + j;
        const TanimotoHit hit{dj, tanimoto_from_counts(cq[qi], cd[dj], x[j])};
        if (heap.size() < k) {
          heap.push_back(hit);
          std::push_heap(heap.begin(), heap.end(), ranks_before);
        } else if (ranks_before(hit, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), ranks_before);
          heap.back() = hit;
          std::push_heap(heap.begin(), heap.end(), ranks_before);
        }
      }
    }
  };
  // Every part runs a team of one over its own query rows, so the sink
  // touches only that part's lists.
  run_split(nq, threads, [&](Range part) {
    gemm_count_fused(pq, part.begin, part.end, pd, 0, nd, keep);
  });
  for (auto& heap : results) {
    std::sort_heap(heap.begin(), heap.end(), ranks_before);
  }
  return results;
}

}  // namespace ldla
