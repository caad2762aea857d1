// End-to-end pipeline tests: simulate -> serialize -> parse -> analyze,
// crossing every subsystem boundary the CLI and examples use.
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "ldla.hpp"

namespace ldla {
namespace {

TEST(Integration, SimulateSerializeAnalyzeRoundTrip) {
  // 1. Simulate a region with a planted sweep.
  SweepParams sp;
  sp.base.n_snps = 500;
  sp.base.n_samples = 120;
  sp.base.switch_rate = 0.05;
  sp.base.founders = 32;
  sp.base.seed = 321;
  sp.sweep_center = 0.35;
  sp.sweep_width = 0.12;
  sp.sweep_intensity = 0.95;
  const SimulatedDataset original = simulate_sweep(sp);

  // 2. Round-trip through the ms text format.
  MsReplicate rep;
  rep.genotypes = original.genotypes.clone();
  rep.positions = original.positions;
  std::stringstream ms_io;
  write_ms(ms_io, rep);
  const auto parsed = parse_ms(ms_io);
  ASSERT_EQ(parsed.size(), 1u);
  const BitMatrix& g = parsed[0].genotypes;
  ASSERT_EQ(g.snps(), original.genotypes.snps());
  ASSERT_EQ(g.samples(), original.genotypes.samples());

  // 3. Round-trip through the binary snapshot and compare payloads.
  std::stringstream ldm_io(std::ios::in | std::ios::out | std::ios::binary);
  write_ldm(ldm_io, g);
  const BitMatrix g2 = read_ldm(ldm_io);
  for (std::size_t s = 0; s < g.snps(); s += 37) {
    ASSERT_EQ(g2.snp_string(s), g.snp_string(s));
    ASSERT_EQ(g.snp_string(s), original.genotypes.snp_string(s));
  }

  // 4. LD through every driver agrees.
  const LdMatrix dense = ld_matrix(g);
  const LdMatrix parallel = ld_matrix_parallel(g, {}, 3);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < g.snps(); i += 11) {
    for (std::size_t j = 0; j < g.snps(); j += 13) {
      const double a = dense(i, j);
      const double b = parallel(i, j);
      if (std::isnan(a)) {
        ASSERT_TRUE(std::isnan(b));
      } else {
        max_diff = std::max(max_diff, std::abs(a - b));
      }
    }
  }
  EXPECT_EQ(max_diff, 0.0);

  // 5. The omega scan localizes the planted sweep from the parsed data.
  SweepScanParams scan_params;
  scan_params.grid_points = 20;
  scan_params.window_snps = 25;
  scan_params.threads = 2;
  const auto scan = omega_scan(g, parsed[0].positions, scan_params);
  ASSERT_FALSE(scan.empty());
  const OmegaPoint peak = omega_scan_peak(scan);
  EXPECT_NEAR(peak.position, sp.sweep_center, 0.15);

  // 6. Decay profile from the same matrix shows decaying LD.
  const DecayProfile decay = ld_decay_profile(g, 100, 4);
  ASSERT_GT(decay.count[0], 0u);
  EXPECT_GT(decay.mean[0], decay.mean[3]);

  // 7. Ranked report is consistent with the dense matrix.
  const auto top = top_pairs(dense, 5);
  ASSERT_EQ(top.size(), 5u);
  for (const auto& pair : top) {
    EXPECT_DOUBLE_EQ(pair.value, dense(pair.i, pair.j));
  }
}

TEST(Integration, VcfToLdPipeline) {
  // Build a VCF in memory from simulated haplotypes, parse it, and verify
  // the LD matrix matches the direct computation.
  WrightFisherParams p;
  p.n_snps = 40;
  p.n_samples = 30;  // 15 diploid individuals
  p.seed = 11;
  const BitMatrix g = simulate_genotypes(p);

  std::ostringstream vcf;
  vcf << "##fileformat=VCFv4.2\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\t"
         "INFO\tFORMAT";
  for (std::size_t i = 0; i < 15; ++i) vcf << "\tS" << i;
  vcf << "\n";
  for (std::size_t s = 0; s < g.snps(); ++s) {
    vcf << "1\t" << (1000 + s) << "\trs" << s << "\tA\tC\t.\tPASS\t.\tGT";
    for (std::size_t ind = 0; ind < 15; ++ind) {
      vcf << '\t' << (g.get(s, 2 * ind) ? '1' : '0') << '|'
          << (g.get(s, 2 * ind + 1) ? '1' : '0');
    }
    vcf << "\n";
  }

  std::istringstream in(vcf.str());
  const VcfData data = parse_vcf(in);
  ASSERT_EQ(data.genotypes.snps(), g.snps());
  ASSERT_EQ(data.genotypes.samples(), g.samples());

  const LdMatrix from_vcf = ld_matrix(data.genotypes);
  const LdMatrix direct = ld_matrix(g);
  for (std::size_t i = 0; i < g.snps(); ++i) {
    for (std::size_t j = 0; j < g.snps(); ++j) {
      if (std::isnan(direct(i, j))) {
        EXPECT_TRUE(std::isnan(from_vcf(i, j)));
      } else {
        EXPECT_DOUBLE_EQ(from_vcf(i, j), direct(i, j));
      }
    }
  }
}

TEST(Integration, FingerprintPipelineFindsPlantedNeighbor) {
  FingerprintParams fp;
  fp.count = 400;
  fp.bits = 1024;
  fp.clusters = 8;
  fp.seed = 99;
  const BitMatrix db = simulate_fingerprints(fp);

  // Query = a database entry with a little extra noise.
  std::vector<std::size_t> base_row = {123};
  BitMatrix query = db.gather_rows(base_row);
  query.set(0, 5, !query.get(0, 5));
  query.set(0, 700, !query.get(0, 700));

  const auto hits = tanimoto_top_k(query, db, 3, {}, 2);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0][0].index, 123u)
      << "the perturbed source fingerprint must be the nearest neighbor";
  EXPECT_GT(hits[0][0].similarity, 0.9);
}

}  // namespace
}  // namespace ldla
