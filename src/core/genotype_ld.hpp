// Genotype-dosage LD as dense linear algebra — PLINK's statistic at GEMM
// speed.
//
// The paper contrasts its allele-based GEMM with PLINK's genotype-centric
// pairwise kernel, but the framework adapts (Section VII's argument) to
// genotypes too: with dosage planes L (dosage==1) and H (dosage==2) over
// complete data, every moment of the Pearson correlation of dosage vectors
// decomposes into popcount-GEMMs:
//
//   sum_xy(i,j) = LL(i,j) + 2·LH(i,j) + 2·LH(j,i) + 4·HH(i,j)
//
// where LL = L·Lᵀ and HH = H·Hᵀ are symmetric counts (SYRK) and LH = L·Hᵀ
// one rectangular GEMM; per-SNP sums come from plane row counts. The
// drivers interleave L and H by row and make one fused SYRK, whose tiles
// hold each pair's whole [[LL, LH], [HL, HH]] block. It replaces the
// baseline's per-pair nine-sweep loop, which is exactly the transformation
// the paper performs for allele LD.
//
// Limitation (documented): this fast path assumes complete data (no
// missing genotypes) — with per-pair missingness the moments stop being
// pair-separable and the pairwise kernel in baselines/plink_like.* is the
// correct tool.
#pragma once

#include "baselines/plink_like.hpp"
#include "core/bit_matrix.hpp"
#include "core/ld.hpp"

namespace ldla {

/// All-pairs genotype r^2 (squared Pearson correlation of dosage vectors)
/// via one fused popcount-SYRK. Requires complete data: throws if any
/// genotype is missing. Matches plink_like_r2_pair bit-for-bit in the
/// counts (verified by tests; the final floating-point normalization is
/// evaluated identically).
LdMatrix genotype_ld_matrix(const GenotypeMatrix& g,
                            const GemmConfig& cfg = {});

/// Streaming variant with ld_stat_scan's tile contract for a team of one:
/// every canonical pair (j <= i, including the diagonal) exactly once and
/// no other entry, diagonal-crossing tiles as one-row fragments. Resident
/// memory is one pack plus one cache tile.
void genotype_ld_scan(const GenotypeMatrix& g, const LdTileVisitor& visit,
                      const GemmConfig& cfg = {});

/// Extract the dosage bit-planes of a complete-data genotype matrix
/// (exposed for tests and for building custom pipelines). Throws if any
/// genotype is missing.
struct DosagePlanes {
  BitMatrix lo;  ///< dosage == 1
  BitMatrix hi;  ///< dosage == 2
};
DosagePlanes extract_dosage_planes(const GenotypeMatrix& g);

}  // namespace ldla
