#include "core/fsm.hpp"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gemm/kernel.hpp"
#include "core/gemm/packed_bit_matrix.hpp"
#include "naive_oracle.hpp"
#include "sim/rng.hpp"
#include "util/contract.hpp"
#include "util/trace.hpp"

namespace ldla {
namespace {

FsmMatrix random_fsm(std::size_t snps, std::size_t samples, double gap_rate,
                     unsigned alphabet, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> rows(snps);
  const char nucs[] = {'A', 'C', 'G', 'T'};
  for (auto& row : rows) {
    row.resize(samples);
    for (auto& c : row) {
      if (rng.next_bool(gap_rate)) {
        c = '-';
      } else {
        c = nucs[rng.next_below(alphabet)];
      }
    }
  }
  return FsmMatrix::from_snp_strings(rows);
}

TEST(FsmMatrix, ParsesNucleotidesAndGaps) {
  const std::vector<std::string> rows = {"ACGT-N", "aacgtt"};
  const FsmMatrix m = FsmMatrix::from_snp_strings(rows);
  EXPECT_EQ(m.snps(), 2u);
  EXPECT_EQ(m.samples(), 6u);
  EXPECT_EQ(m.state(0, 0), kA);
  EXPECT_EQ(m.state(0, 1), kC);
  EXPECT_EQ(m.state(0, 2), kG);
  EXPECT_EQ(m.state(0, 3), kT);
  EXPECT_EQ(m.state(0, 4), -1);
  EXPECT_EQ(m.state(0, 5), -1);
  EXPECT_EQ(m.state(1, 0), kA) << "lowercase must parse";
  EXPECT_EQ(m.states_present(0), 4u);
  EXPECT_EQ(m.states_present(1), 4u);
}

TEST(FsmMatrix, RejectsBadCharacters) {
  const std::vector<std::string> rows = {"ACGX"};
  EXPECT_THROW(FsmMatrix::from_snp_strings(rows), ParseError);
}

TEST(FsmMatrix, SetStateClearsPreviousPlane) {
  FsmMatrix m(1, 4);
  m.set_state(0, 0, kA);
  m.set_state(0, 0, kT);
  EXPECT_EQ(m.state(0, 0), kT);
  EXPECT_FALSE(m.plane(kA).get(0, 0));
  m.set_gap(0, 0);
  EXPECT_EQ(m.state(0, 0), -1);
}

// The oracle's plans plus one nr = 2 variant, whose column tiles would
// split a SNP's four plane rows without the 4-row edge rule (nc 6 -> 8).
std::vector<GemmConfig> fsm_plans() {
  std::vector<GemmConfig> cfgs = oracle::pair_block_configs();
  for (const KernelInfo* k : available_kernel_variants()) {
    if (k->nr != 2) continue;
    GemmConfig narrow;
    narrow.arch = k->arch;
    narrow.mr = k->mr;
    narrow.nr = k->nr;
    narrow.ku = k->ku;
    narrow.kc_words = k->ku;
    narrow.mc = 5;
    narrow.nc = 6;
    cfgs.push_back(narrow);
    break;
  }
  return cfgs;
}

TEST(FsmT, GemmMatchesPerSampleReference) {
  for (const std::size_t n : {1u, 5u, 63u, 130u}) {
    const FsmMatrix g = random_fsm(n, 80, 0.1, 4, 42 + n);
    std::vector<double> want(n * n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        want[i * n + j] = fsm_t_pair_reference(g, i, j);
      }
    }
    for (const GemmConfig& cfg : fsm_plans()) {
      const LdMatrix got = fsm_t_matrix(g, cfg);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_TRUE(oracle::same_bits(got(i, j), want[i * n + j]))
              << oracle::describe_plan(cfg) << " n " << n << " at " << i
              << "," << j;
        }
      }
    }
  }
}

TEST(Fsm, PacksTheInterleavedPlanesOnce) {
  if (!trace::compiled()) GTEST_SKIP() << "built with LDLA_TRACE=OFF";
  const FsmMatrix g = random_fsm(37, 300, 0.05, 4, 17);
  // The operand fsm_t_matrix packs: row 4i + a = plane a of SNP i.
  BitMatrix interleaved(4 * g.snps(), g.samples());
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t s = 0; s < g.samples(); ++s) {
      const int a = g.state(i, s);
      if (a >= 0) interleaved.set(4 * i + static_cast<std::size_t>(a), s, true);
    }
  }
  trace::TraceSnapshot before = trace::snapshot();
  (void)PackedBitMatrix::pack(interleaved.view());
  const std::uint64_t one_pack =
      trace::snapshot().since(before).counters.bytes_packed;
  ASSERT_GT(one_pack, 0u);

  before = trace::snapshot();
  (void)fsm_t_matrix(g);
  EXPECT_EQ(trace::snapshot().since(before).counters.bytes_packed, one_pack);
}

TEST(FsmT, BiallelicNoGapsReducesToScaledIsmR2) {
  // With exactly two states (A/C), no gaps: v_i = v_j = 2, v_ij = Nseq, and
  // the four r^2_ab terms are all equal to the biallelic r^2, so
  // T = (1*1*N / 4) * 4 * r^2 = N * r^2.
  Rng rng(9);
  const std::size_t snps = 12, samples = 64;
  std::vector<std::string> fsm_rows(snps), bin_rows(snps);
  for (std::size_t s = 0; s < snps; ++s) {
    fsm_rows[s].resize(samples);
    bin_rows[s].resize(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      const bool derived = rng.next_bool(0.4);
      fsm_rows[s][i] = derived ? 'C' : 'A';
      bin_rows[s][i] = derived ? '1' : '0';
    }
  }
  const FsmMatrix fsm = FsmMatrix::from_snp_strings(fsm_rows);
  const BitMatrix bin = BitMatrix::from_snp_strings(bin_rows);

  const LdMatrix t = fsm_t_matrix(fsm);
  const LdMatrix r2 = ld_matrix(bin);
  const double n = static_cast<double>(samples);
  for (std::size_t i = 0; i < snps; ++i) {
    for (std::size_t j = 0; j < snps; ++j) {
      if (std::isnan(r2(i, j))) {
        EXPECT_TRUE(std::isnan(t(i, j)));
      } else {
        EXPECT_NEAR(t(i, j), n * r2(i, j), 1e-9) << i << "," << j;
      }
    }
  }
}

TEST(FsmT, MonomorphicSnpGivesNaN) {
  const std::vector<std::string> rows = {"AAAA", "ACGT"};
  const FsmMatrix m = FsmMatrix::from_snp_strings(rows);
  const LdMatrix t = fsm_t_matrix(m);
  EXPECT_TRUE(std::isnan(t(0, 1)));
  EXPECT_TRUE(std::isnan(t(0, 0)));
}

TEST(FsmT, PerfectlyLinkedSnpsScoreHigherThanIndependent) {
  // SNP 0 and 1 are copies (perfect LD); SNP 2 alternates out of phase.
  Rng rng(11);
  const std::size_t samples = 256;
  std::string a(samples, 'A');
  for (std::size_t i = 0; i < samples; ++i) {
    a[i] = rng.next_bool(0.5) ? 'G' : 'A';
  }
  std::string c(samples, 'A');
  for (std::size_t i = 0; i < samples; ++i) {
    c[i] = rng.next_bool(0.5) ? 'T' : 'C';
  }
  const std::vector<std::string> rows = {a, a, c};
  const FsmMatrix m = FsmMatrix::from_snp_strings(rows);
  const LdMatrix t = fsm_t_matrix(m);
  EXPECT_GT(t(0, 1), t(0, 2));
}

TEST(FsmT, SymmetricResult) {
  const FsmMatrix g = random_fsm(10, 60, 0.05, 3, 13);
  const LdMatrix t = fsm_t_matrix(g);
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (!std::isnan(t(i, j))) {
        EXPECT_NEAR(t(i, j), t(j, i), 1e-10);
      }
    }
  }
}

}  // namespace
}  // namespace ldla
