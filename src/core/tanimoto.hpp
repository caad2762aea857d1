// Tanimoto 2-D fingerprint similarity (Section VII, "Adapting for other
// domains", Eq. 7).
//
// With p = POPCNT(A), q = POPCNT(B), x = POPCNT(A & B):
//
//     Tanimoto(A, B) = x / (p + q - x)
//
// Computationally identical to ISM LD: one popcount-GEMM for all pairwise
// x values plus per-row counts, so chemical-similarity matrices inherit the
// whole blocking/kernel machinery.
#pragma once

#include <utility>
#include <vector>

#include "core/bit_matrix.hpp"
#include "core/ld.hpp"

namespace ldla {

/// All-pairs Tanimoto similarity over a fingerprint database (rows of
/// `fps` are fingerprints). Diagonal is 1 for non-empty fingerprints;
/// pairs of two all-zero fingerprints are defined as 0.
LdMatrix tanimoto_matrix(const BitMatrix& fps, const GemmConfig& cfg = {});

/// Similarities between every row of `a` and every row of `b`.
LdMatrix tanimoto_cross_matrix(const BitMatrix& a, const BitMatrix& b,
                               const GemmConfig& cfg = {});

struct TanimotoHit {
  std::size_t index = 0;    ///< row in the database
  double similarity = 0.0;
};

/// Top-k most similar database fingerprints for every query row; results
/// are sorted by descending similarity (ties by ascending index). The
/// queries and the database are each packed once, and one fused product
/// per query range keeps each query's best k as its count tiles arrive, so
/// no count matrix is materialized. `threads` splits the queries into that
/// many ranges (0 = default_thread_count()), each a team of one; the
/// result is identical at every thread count. The ranges and the threaded
/// packs run on global_pool(); do not call with threads != 1 from inside a
/// global_pool() task.
std::vector<std::vector<TanimotoHit>> tanimoto_top_k(
    const BitMatrix& queries, const BitMatrix& database, std::size_t k,
    const GemmConfig& cfg = {}, unsigned threads = 1);

/// Scalar reference for one pair (tests).
double tanimoto_pair(const BitMatrix& a, std::size_t i, const BitMatrix& b,
                     std::size_t j);

}  // namespace ldla
