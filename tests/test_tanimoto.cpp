#include "core/tanimoto.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "naive_oracle.hpp"
#include "sim/fingerprint_sim.hpp"
#include "sim/rng.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

BitMatrix random_fps(std::size_t count, std::size_t bits, std::uint64_t seed,
                     double density = 0.3) {
  Rng rng(seed);
  BitMatrix m(count, bits);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t b = 0; b < bits; ++b) {
      if (rng.next_bool(density)) m.set(i, b, true);
    }
  }
  return m;
}

TEST(TanimotoPair, HandComputedExamples) {
  // A = 1100, B = 1010: p=2, q=2, x=1 -> 1/(2+2-1) = 1/3.
  const BitMatrix m = BitMatrix::from_snp_strings(
      std::vector<std::string>{"1100", "1010", "0000", "1100"});
  EXPECT_DOUBLE_EQ(tanimoto_pair(m, 0, m, 1), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(tanimoto_pair(m, 0, m, 3), 1.0);   // identical
  EXPECT_DOUBLE_EQ(tanimoto_pair(m, 0, m, 2), 0.0);   // vs empty
  EXPECT_DOUBLE_EQ(tanimoto_pair(m, 2, m, 2), 0.0);   // empty vs empty
}

TEST(TanimotoMatrix, MatchesPairwiseReference) {
  const BitMatrix fps = random_fps(25, 300, 1);
  const LdMatrix sim = tanimoto_matrix(fps);
  for (std::size_t i = 0; i < fps.snps(); ++i) {
    for (std::size_t j = 0; j < fps.snps(); ++j) {
      EXPECT_NEAR(sim(i, j), tanimoto_pair(fps, i, fps, j), 1e-12);
    }
  }
}

TEST(TanimotoMatrix, DiagonalIsOneForNonEmpty) {
  const BitMatrix fps = random_fps(10, 128, 2, 0.5);
  const LdMatrix sim = tanimoto_matrix(fps);
  for (std::size_t i = 0; i < fps.snps(); ++i) {
    if (fps.derived_count(i) > 0) {
      EXPECT_DOUBLE_EQ(sim(i, i), 1.0);
    }
  }
}

TEST(TanimotoMatrix, ValuesInUnitInterval) {
  const BitMatrix fps = random_fps(30, 200, 3, 0.1);
  const LdMatrix sim = tanimoto_matrix(fps);
  for (std::size_t i = 0; i < fps.snps(); ++i) {
    for (std::size_t j = 0; j < fps.snps(); ++j) {
      EXPECT_GE(sim(i, j), 0.0);
      EXPECT_LE(sim(i, j), 1.0);
    }
  }
}

TEST(TanimotoCross, MatchesPairwiseReference) {
  const BitMatrix a = random_fps(9, 256, 4);
  const BitMatrix b = random_fps(13, 256, 5);
  const LdMatrix sim = tanimoto_cross_matrix(a, b);
  for (std::size_t i = 0; i < a.snps(); ++i) {
    for (std::size_t j = 0; j < b.snps(); ++j) {
      EXPECT_NEAR(sim(i, j), tanimoto_pair(a, i, b, j), 1e-12);
    }
  }
}

TEST(TanimotoCross, RejectsMismatchedWidths) {
  const BitMatrix a = random_fps(4, 128, 6);
  const BitMatrix b = random_fps(4, 256, 7);
  EXPECT_THROW((void)tanimoto_cross_matrix(a, b), ContractViolation);
  EXPECT_THROW((void)tanimoto_pair(a, 0, b, 0), ContractViolation);
}

TEST(TanimotoTopK, FindsExactNeighbors) {
  const BitMatrix db = random_fps(200, 512, 8);
  const BitMatrix queries = random_fps(5, 512, 9);
  const auto results = tanimoto_top_k(queries, db, 10);
  ASSERT_EQ(results.size(), queries.snps());

  const LdMatrix full = tanimoto_cross_matrix(queries, db);
  for (std::size_t q = 0; q < queries.snps(); ++q) {
    ASSERT_EQ(results[q].size(), 10u);
    // Results sorted descending.
    for (std::size_t r = 1; r < results[q].size(); ++r) {
      EXPECT_GE(results[q][r - 1].similarity, results[q][r].similarity);
    }
    // Top hit really is the argmax of the dense row.
    double best = -1.0;
    for (std::size_t j = 0; j < db.snps(); ++j) {
      best = std::max(best, full(q, j));
    }
    EXPECT_DOUBLE_EQ(results[q][0].similarity, best);
  }
}

TEST(TanimotoTopK, SlabBoundariesDoNotLoseHits) {
  // A narrow column block spreads every query's candidates over ~33 count
  // tiles, with k spanning several of them.
  const BitMatrix db = random_fps(2100, 64, 10);
  const BitMatrix queries = random_fps(2, 64, 11);
  GemmConfig narrow;
  narrow.nc = 64;
  const auto results = tanimoto_top_k(queries, db, 50, narrow);
  const LdMatrix full = tanimoto_cross_matrix(queries, db);
  for (std::size_t q = 0; q < 2; ++q) {
    std::vector<double> row(db.snps());
    for (std::size_t j = 0; j < db.snps(); ++j) row[j] = full(q, j);
    std::sort(row.rbegin(), row.rend());
    for (std::size_t r = 0; r < 50; ++r) {
      EXPECT_DOUBLE_EQ(results[q][r].similarity, row[r]) << "rank " << r;
    }
  }
}

TEST(TanimotoTopK, ParallelMatchesSequential) {
  // Rows 300..399 of the database repeat rows 0..99, and queries 0..3 are
  // database rows, so equal similarities must be ordered by index.
  std::vector<std::size_t> rows(400);
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i % 300;
  const BitMatrix db = random_fps(300, 256, 14).gather_rows(rows);
  std::vector<std::size_t> picks = {0, 42, 99, 250};
  BitMatrix queries = random_fps(11, 256, 15);
  const BitMatrix copies = db.gather_rows(picks);
  for (std::size_t q = 0; q < picks.size(); ++q) {
    for (std::size_t b = 0; b < queries.samples(); ++b) {
      queries.set(q, b, copies.get(q, b));
    }
  }
  constexpr std::size_t k = 7;

  // The expected ranking: every row of the dense similarity matrix sorted
  // by similarity descending, then index ascending.
  const LdMatrix full = tanimoto_cross_matrix(queries, db);
  std::vector<std::vector<TanimotoHit>> want(queries.snps());
  for (std::size_t q = 0; q < queries.snps(); ++q) {
    for (std::size_t j = 0; j < db.snps(); ++j) {
      want[q].push_back({j, full(q, j)});
    }
    std::sort(want[q].begin(), want[q].end(),
              [](const TanimotoHit& a, const TanimotoHit& b) {
                if (a.similarity != b.similarity) {
                  return a.similarity > b.similarity;
                }
                return a.index < b.index;
              });
    want[q].resize(k);
  }
  EXPECT_EQ(want[0][0].index, 0u);
  EXPECT_EQ(want[0][1].index, 300u) << "the duplicate ranks second";

  const auto one = tanimoto_top_k(queries, db, k);
  for (unsigned t : {0u, 1u, 2u, 4u}) {
    const auto got = tanimoto_top_k(queries, db, k, {}, t);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t q = 0; q < want.size(); ++q) {
      ASSERT_EQ(got[q].size(), k);
      for (std::size_t r = 0; r < k; ++r) {
        EXPECT_EQ(got[q][r].index, want[q][r].index)
            << "threads " << t << " at " << q << "," << r;
        EXPECT_EQ(got[q][r].index, one[q][r].index);
        EXPECT_TRUE(oracle::same_bits(got[q][r].similarity,
                                      want[q][r].similarity));
        EXPECT_TRUE(oracle::same_bits(got[q][r].similarity,
                                      one[q][r].similarity));
      }
    }
  }
}

TEST(TanimotoTopK, RejectsZeroK) {
  const BitMatrix db = random_fps(4, 64, 12);
  EXPECT_THROW((void)tanimoto_top_k(db, db, 0), ContractViolation);
}

TEST(TanimotoClusters, SimulatedClustersAreTighterWithinThanAcross) {
  FingerprintParams p;
  p.count = 64;
  p.bits = 512;
  p.clusters = 4;
  p.seed = 13;
  const BitMatrix fps = simulate_fingerprints(p);
  const LdMatrix sim = tanimoto_matrix(fps);

  double within = 0.0, across = 0.0;
  std::size_t n_within = 0, n_across = 0;
  for (std::size_t i = 0; i < fps.snps(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (i % p.clusters == j % p.clusters) {
        within += sim(i, j);
        ++n_within;
      } else {
        across += sim(i, j);
        ++n_across;
      }
    }
  }
  EXPECT_GT(within / static_cast<double>(n_within),
            across / static_cast<double>(n_across) + 0.2);
}

}  // namespace
}  // namespace ldla
