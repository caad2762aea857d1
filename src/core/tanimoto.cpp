#include "core/tanimoto.hpp"

#include <algorithm>
#include <thread>

#include "core/detail/ld_stats_row.hpp"
#include "core/gemm/count_matrix.hpp"
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

std::vector<std::vector<TanimotoHit>> tanimoto_top_k_parallel(
    const BitMatrix& queries, const BitMatrix& database, std::size_t k,
    const GemmConfig& cfg, unsigned threads) {
  LDLA_EXPECT(queries.samples() == database.samples(),
              "fingerprint widths differ");
  LDLA_EXPECT(k > 0, "k must be positive");
  const std::size_t nq = queries.snps();
  std::vector<std::vector<TanimotoHit>> results(nq);
  if (nq == 0 || database.snps() == 0) return results;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }

  ThreadPool pool(threads);
  pool.parallel_for(0, nq, [&](std::size_t lo, std::size_t hi) {
    std::vector<std::size_t> rows(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) rows[i - lo] = i;
    const BitMatrix chunk = queries.gather_rows(rows);
    auto chunk_results = tanimoto_top_k(chunk, database, k, cfg);
    for (std::size_t i = lo; i < hi; ++i) {
      results[i] = std::move(chunk_results[i - lo]);
    }
  });
  return results;
}

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
    const GemmConfig& cfg) {
  LDLA_EXPECT(queries.samples() == database.samples(),
              "fingerprint widths differ");
  LDLA_EXPECT(k > 0, "k must be positive");
  const std::size_t nq = queries.snps();
  const std::size_t nd = database.snps();
  std::vector<std::vector<TanimotoHit>> results(nq);
  if (nq == 0 || nd == 0) return results;

  const std::vector<std::uint64_t> cq = row_counts(queries);
  const std::vector<std::uint64_t> cd = row_counts(database);

  // Stream the database in slabs to bound memory.
  constexpr std::size_t kSlab = 1024;
  CountMatrix x(nq, std::min(kSlab, nd));
  for (std::size_t d0 = 0; d0 < nd; d0 += kSlab) {
    const std::size_t cols = std::min(kSlab, nd - d0);
    x.zero();
    CountMatrixRef xref{x.ref().data, nq, cols, x.ld()};
    gemm_count(queries.view(), database.view(d0, d0 + cols), xref, cfg);
    for (std::size_t qi = 0; qi < nq; ++qi) {
      auto& hits = results[qi];
      for (std::size_t j = 0; j < cols; ++j) {
        const double sim =
            tanimoto_from_counts(cq[qi], cd[d0 + j], xref.at(qi, j));
        hits.push_back({d0 + j, sim});
      }
      // Keep only the current top-k to bound memory across slabs.
      const auto by_sim = [](const TanimotoHit& a, const TanimotoHit& b) {
        if (a.similarity != b.similarity) return a.similarity > b.similarity;
        return a.index < b.index;
      };
      if (hits.size() > k) {
        std::partial_sort(hits.begin(),
                          hits.begin() + static_cast<std::ptrdiff_t>(k),
                          hits.end(), by_sim);
        hits.resize(k);
      }
    }
  }
  for (auto& hits : results) {
    std::sort(hits.begin(), hits.end(),
              [](const TanimotoHit& a, const TanimotoHit& b) {
                if (a.similarity != b.similarity) {
                  return a.similarity > b.similarity;
                }
                return a.index < b.index;
              });
  }
  return results;
}

}  // namespace ldla
