// Finite-sites-model extension (Section VII, "Facilitating finite sites
// models").
//
// Under the FSM a SNP holds up to four nucleotide states; each SNP is
// represented by four bit-planes (one per nucleotide), with gaps/ambiguity
// expressed as a sample being set in no plane. The per-pair statistic is
// Zaykin's correlation-based T (Eq. 6):
//
//   T_ij = ((v_i - 1)(v_j - 1) v_ij / (v_i v_j)) * sum_{a,b} r^2_{ab}
//
// where v_i is the number of states present at SNP i, v_ij the number of
// valid state pairs (samples valid at both SNPs), and r^2_{ab} is Eq. 2
// applied to the indicator vectors "state a at i" / "state b at j" over the
// jointly valid samples.
//
// Everything reduces to one popcount product: the four planes are
// interleaved by row (row 4i + a is plane a of SNP i) and the 4n-row matrix
// is packed once and multiplied with itself, so each count tile holds whole
// 4x4 blocks P_ab(i, j) = POPCNT(plane_a_i & plane_b_j). The planes are
// disjoint, so the masked marginals and v_ij are exact sums of the block.
// The product has 16x the word-triples of one ISM SNP product — the
// finite-sites cost the paper derives.
#pragma once

#include <array>

#include "core/bit_matrix.hpp"
#include "core/ld.hpp"

namespace ldla {

/// Nucleotide indices for the four planes.
enum Nucleotide : std::size_t { kA = 0, kC = 1, kG = 2, kT = 3 };

/// A finite-sites genomic matrix: four presence bit-planes per SNP.
/// A sample set in no plane is a gap/ambiguous character (invalid).
class FsmMatrix {
 public:
  FsmMatrix() = default;

  /// All planes zero (every sample a gap) — fill via set_state.
  FsmMatrix(std::size_t n_snps, std::size_t n_samples);

  /// Build from per-SNP strings over {A, C, G, T, -, N} (case-insensitive;
  /// '-' and 'N' mark gaps/ambiguity).
  static FsmMatrix from_snp_strings(std::span<const std::string> snps);

  [[nodiscard]] std::size_t snps() const noexcept { return planes_[0].snps(); }
  [[nodiscard]] std::size_t samples() const noexcept {
    return planes_[0].samples();
  }

  /// Assign nucleotide `nuc` to (snp, sample), clearing any previous state.
  void set_state(std::size_t snp, std::size_t sample, Nucleotide nuc);
  /// Mark (snp, sample) as a gap (no state set).
  void set_gap(std::size_t snp, std::size_t sample);
  /// Nucleotide at (snp, sample), or -1 for a gap.
  [[nodiscard]] int state(std::size_t snp, std::size_t sample) const;

  [[nodiscard]] const BitMatrix& plane(Nucleotide nuc) const {
    return planes_[nuc];
  }

  /// Number of distinct states present at a SNP (v_i in Eq. 6).
  [[nodiscard]] unsigned states_present(std::size_t snp) const;

 private:
  std::array<BitMatrix, 4> planes_;
};

/// All-pairs Zaykin T over an FSM matrix. Degenerate pairs (fewer than two
/// states at either SNP, or no valid pairs) are NaN. Every entry equals
/// fsm_t_pair_reference bit for bit.
LdMatrix fsm_t_matrix(const FsmMatrix& g, const GemmConfig& cfg = {});

/// Scalar reference for one pair of SNPs directly from the planes (O(k)
/// per pair; the oracle the GEMM version is tested against).
double fsm_t_pair_reference(const FsmMatrix& g, std::size_t i, std::size_t j);

}  // namespace ldla
