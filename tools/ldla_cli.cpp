// ldla_cli — end-to-end command-line front end for the library.
//
// Subcommands:
//   simulate   generate a dataset and write it as Hudson ms (or .ldm binary)
//   compute    all-pairs LD from an ms/vcf/ldm input; CSV matrix or report
//   sweep      omega-statistic selective-sweep scan over an input region
//   info       dataset summary (dimensions, allele-frequency spectrum)
//
// Examples:
//   ldla_cli simulate --snps 2000 --samples 500 --out region.ms
//   ldla_cli compute region.ms --stat r2 --top 20
//   ldla_cli compute region.ms --matrix-out ld.csv
//   ldla_cli sweep region.ms --grid 50
//   ldla_cli info region.ms
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>

#include "ldla.hpp"
#include "util/args.hpp"
#include "util/cpu_info.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace ldla;

struct LoadedDataset {
  BitMatrix genotypes;
  std::vector<double> positions;  // normalized to [0, 1); empty if unknown
};

LoadedDataset load_dataset(const std::string& path) {
  LoadedDataset out;
  if (path.size() > 4 && path.substr(path.size() - 4) == ".ldm") {
    out.genotypes = read_ldm_file(path);
    return out;
  }
  if (path.size() > 4 && path.substr(path.size() - 4) == ".vcf") {
    VcfData vcf = parse_vcf_file(path, /*skip_invalid=*/true);
    if (vcf.skipped > 0) {
      std::fprintf(stderr, "note: skipped %zu unsupported VCF sites\n",
                   vcf.skipped);
    }
    out.genotypes = std::move(vcf.genotypes);
    // Positions are normalized by their offset from the first one, so they
    // must not decrease (a second contig would wrap the unsigned offset).
    const auto drop = std::adjacent_find(vcf.positions.begin(),
                                         vcf.positions.end(), std::greater<>());
    if (drop != vcf.positions.end()) {
      throw Error("vcf: POS " + std::to_string(*(drop + 1)) +
                  " decreases after POS " + std::to_string(*drop) +
                  " (positions must be non-decreasing: one contig per file)");
    }
    if (!vcf.positions.empty()) {
      const double span =
          static_cast<double>(vcf.positions.back() - vcf.positions.front()) +
          1.0;
      out.positions.reserve(vcf.positions.size());
      for (const auto p : vcf.positions) {
        out.positions.push_back(
            static_cast<double>(p - vcf.positions.front()) / span);
      }
    }
    return out;
  }
  auto reps = parse_ms_file(path);
  out.genotypes = std::move(reps.front().genotypes);
  out.positions = std::move(reps.front().positions);
  if (reps.size() > 1) {
    std::fprintf(stderr, "note: using first of %zu ms replicates\n",
                 reps.size());
  }
  return out;
}

LdStatistic parse_stat(const std::string& s) {
  if (s == "d") return LdStatistic::kD;
  if (s == "dprime") return LdStatistic::kDPrime;
  if (s == "r2") return LdStatistic::kRSquared;
  throw Error("unknown statistic '" + s + "' (use d, dprime or r2)");
}

int cmd_simulate(int argc, const char* const* argv) {
  ArgParser args("ldla_cli simulate", "generate a dataset");
  args.add_option("snps", "SNP count", "2000");
  args.add_option("samples", "sample count", "500");
  args.add_option("seed", "random seed", "42");
  args.add_option("switch-rate", "recombination analog (lower = more LD)",
                  "0.02");
  args.add_option("sweep", "plant a sweep at this position (empty = none)",
                  "");
  args.add_option("out", "output path (.ms or .ldm)", "out.ms");
  if (!args.parse(argc, argv)) return 0;

  WrightFisherParams p;
  p.n_snps = static_cast<std::size_t>(args.integer("snps"));
  p.n_samples = static_cast<std::size_t>(args.integer("samples"));
  p.seed = static_cast<std::uint64_t>(args.integer("seed"));
  p.switch_rate = args.real("switch-rate");

  SimulatedDataset data;
  if (const std::string sweep = args.str("sweep"); !sweep.empty()) {
    SweepParams sp;
    sp.base = p;
    sp.sweep_center = std::stod(sweep);
    data = simulate_sweep(sp);
    std::printf("simulated sweep at %.3f\n", sp.sweep_center);
  } else {
    data = simulate_wright_fisher(p);
  }

  const std::string out = args.str("out");
  if (out.size() > 4 && out.substr(out.size() - 4) == ".ldm") {
    write_ldm_file(out, data.genotypes);
  } else {
    MsReplicate rep;
    rep.genotypes = std::move(data.genotypes);
    rep.positions = std::move(data.positions);
    write_ms_file(out, rep);
  }
  std::printf("wrote %s (%lld SNPs x %lld samples)\n", out.c_str(),
              static_cast<long long>(args.integer("snps")),
              static_cast<long long>(args.integer("samples")));
  return 0;
}

int cmd_compute(int argc, const char* const* argv) {
  ArgParser args("ldla_cli compute", "all-pairs LD from a dataset file");
  args.add_option("stat", "LD statistic: d, dprime or r2", "r2");
  args.add_option("threads", "worker threads (0 = all cores)", "0");
  args.add_option("top", "pairs in the ranked report", "10");
  args.add_option("matrix-out", "write the full matrix as CSV here", "");
  if (!args.parse(argc, argv)) return 0;
  if (args.positional().empty()) {
    throw Error("compute: need an input file (ms/vcf/ldm)");
  }

  const LoadedDataset data = load_dataset(args.positional().front());
  std::printf("%zu SNPs x %zu samples | %s\n", data.genotypes.snps(),
              data.genotypes.samples(), cpu_summary().c_str());

  LdOptions opts;
  opts.stat = parse_stat(args.str("stat"));
  Timer timer;
  const LdMatrix ld = ld_matrix_parallel(
      data.genotypes, opts, static_cast<unsigned>(args.integer("threads")));
  const double seconds = timer.seconds();
  const std::uint64_t pairs = ld_pair_count(data.genotypes.snps());
  std::printf("%llu %s values in %.3f s (%.2f Mpairs/s)\n",
              static_cast<unsigned long long>(pairs),
              ld_statistic_name(opts.stat).c_str(), seconds,
              static_cast<double>(pairs) / seconds / 1e6);

  if (const std::string out = args.str("matrix-out"); !out.empty()) {
    write_matrix_csv_file(out, ld);
    std::printf("matrix written to %s\n", out.c_str());
  }
  const auto top =
      top_pairs(ld, static_cast<std::size_t>(args.integer("top")));
  write_top_pairs(std::cout, top, ld_statistic_name(opts.stat));
  return 0;
}

int cmd_sweep(int argc, const char* const* argv) {
  ArgParser args("ldla_cli sweep", "omega selective-sweep scan");
  args.add_option("grid", "grid points", "50");
  args.add_option("window", "window SNPs each side", "40");
  if (!args.parse(argc, argv)) return 0;
  if (args.positional().empty()) {
    throw Error("sweep: need an input file (ms/vcf/ldm)");
  }

  LoadedDataset data = load_dataset(args.positional().front());
  if (data.positions.empty()) {
    // .ldm files carry no coordinates; use uniform positions.
    data.positions.resize(data.genotypes.snps());
    for (std::size_t i = 0; i < data.positions.size(); ++i) {
      data.positions[i] = (static_cast<double>(i) + 0.5) /
                          static_cast<double>(data.positions.size());
    }
  }

  SweepScanParams params;
  params.grid_points = static_cast<std::size_t>(args.integer("grid"));
  params.window_snps = static_cast<std::size_t>(args.integer("window"));
  const auto scan = omega_scan(data.genotypes, data.positions, params);
  Table table({"position", "omega"});
  for (const auto& p : scan) {
    table.add_row({fmt_fixed(p.position, 4), fmt_fixed(p.omega, 3)});
  }
  std::fputs(table.str().c_str(), stdout);
  if (!scan.empty()) {
    const OmegaPoint peak = omega_scan_peak(scan);
    std::printf("\npeak omega %.3f at %.4f\n", peak.omega, peak.position);
  }
  return 0;
}

int cmd_convert(int argc, const char* const* argv) {
  ArgParser args("ldla_cli convert",
                 "convert between dataset formats (ms/vcf -> ms/ldm)");
  args.add_option("out", "output path (.ms or .ldm)", "out.ldm");
  if (!args.parse(argc, argv)) return 0;
  if (args.positional().empty()) {
    throw Error("convert: need an input file (ms/vcf/ldm)");
  }

  LoadedDataset data = load_dataset(args.positional().front());
  const std::string out = args.str("out");
  if (out.size() > 4 && out.substr(out.size() - 4) == ".ldm") {
    write_ldm_file(out, data.genotypes);
  } else {
    MsReplicate rep;
    if (data.positions.empty()) {
      data.positions.resize(data.genotypes.snps());
      for (std::size_t i = 0; i < data.positions.size(); ++i) {
        data.positions[i] = (static_cast<double>(i) + 0.5) /
                            static_cast<double>(data.positions.size());
      }
    }
    rep.positions = std::move(data.positions);
    rep.genotypes = std::move(data.genotypes);
    write_ms_file(out, rep);
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_cross(int argc, const char* const* argv) {
  ArgParser args("ldla_cli cross",
                 "LD between two regions over the same samples");
  args.add_option("top", "pairs to report", "10");
  args.add_option("threads", "worker threads (0 = all cores)", "0");
  if (!args.parse(argc, argv)) return 0;
  if (args.positional().size() != 2) {
    throw Error("cross: need exactly two input files");
  }

  const LoadedDataset a = load_dataset(args.positional()[0]);
  const LoadedDataset b = load_dataset(args.positional()[1]);
  std::printf("region A: %zu SNPs | region B: %zu SNPs | %zu samples\n",
              a.genotypes.snps(), b.genotypes.snps(), a.genotypes.samples());

  Timer timer;
  const LdMatrix ld = ld_cross_matrix(
      a.genotypes, b.genotypes, {},
      static_cast<unsigned>(args.integer("threads")));
  std::printf("%zu cross-LD values in %.3f s\n\n",
              a.genotypes.snps() * b.genotypes.snps(), timer.seconds());

  struct Hit {
    std::size_t i, j;
    double v;
  };
  std::vector<Hit> hits;
  for (std::size_t i = 0; i < ld.rows(); ++i) {
    for (std::size_t j = 0; j < ld.cols(); ++j) {
      if (std::isfinite(ld(i, j))) hits.push_back({i, j, ld(i, j)});
    }
  }
  const auto top = std::min<std::size_t>(
      hits.size(), static_cast<std::size_t>(args.integer("top")));
  std::partial_sort(hits.begin(), hits.begin() + static_cast<std::ptrdiff_t>(top),
                    hits.end(),
                    [](const Hit& x, const Hit& y) { return x.v > y.v; });
  Table table({"rank", "A snp", "B snp", "r^2"});
  for (std::size_t r = 0; r < top; ++r) {
    table.add_row({std::to_string(r + 1), std::to_string(hits[r].i),
                   std::to_string(hits[r].j), fmt_fixed(hits[r].v, 4)});
  }
  std::fputs(table.str().c_str(), stdout);
  return 0;
}

int cmd_decay(int argc, const char* const* argv) {
  ArgParser args("ldla_cli decay", "mean r^2 vs SNP distance (banded scan)");
  args.add_option("bandwidth", "max SNP-index distance", "200");
  args.add_option("bins", "distance bins", "10");
  if (!args.parse(argc, argv)) return 0;
  if (args.positional().empty()) {
    throw Error("decay: need an input file (ms/vcf/ldm)");
  }

  const LoadedDataset data = load_dataset(args.positional().front());
  const DecayProfile prof = ld_decay_profile(
      data.genotypes,
      static_cast<std::size_t>(args.integer("bandwidth")),
      static_cast<std::size_t>(args.integer("bins")));
  Table table({"distance <=", "mean r^2", "pairs"});
  for (std::size_t b = 0; b < prof.mean.size(); ++b) {
    table.add_row({fmt_fixed(prof.bin_upper[b], 0),
                   fmt_fixed(prof.mean[b], 4),
                   std::to_string(prof.count[b])});
  }
  std::fputs(table.str().c_str(), stdout);
  return 0;
}

int cmd_blocks(int argc, const char* const* argv) {
  ArgParser args("ldla_cli blocks", "haplotype-block partition (banded scan)");
  args.add_option("threshold", "mean r^2 to join a block", "0.5");
  args.add_option("span", "max SNP distance evaluated", "100");
  args.add_option("min-size", "only report blocks of at least this size", "2");
  if (!args.parse(argc, argv)) return 0;
  if (args.positional().empty()) {
    throw Error("blocks: need an input file (ms/vcf/ldm)");
  }

  const LoadedDataset data = load_dataset(args.positional().front());
  LdBlockParams params;
  params.threshold = args.real("threshold");
  params.max_span = static_cast<std::size_t>(args.integer("span"));
  const auto blocks = find_ld_blocks(data.genotypes, params);

  const auto min_size = static_cast<std::size_t>(args.integer("min-size"));
  Table table({"begin", "end", "SNPs", "mean r^2"});
  std::size_t reported = 0;
  for (const auto& b : blocks) {
    if (b.size() < min_size) continue;
    table.add_row({std::to_string(b.begin), std::to_string(b.end),
                   std::to_string(b.size()), fmt_fixed(b.mean_r2, 3)});
    ++reported;
  }
  std::printf("%zu blocks total, %zu with >= %zu SNPs:\n", blocks.size(),
              reported, min_size);
  std::fputs(table.str().c_str(), stdout);
  return 0;
}

int cmd_info(int argc, const char* const* argv) {
  ArgParser args("ldla_cli info", "dataset summary");
  if (!args.parse(argc, argv)) return 0;
  if (args.positional().empty()) {
    throw Error("info: need an input file (ms/vcf/ldm)");
  }
  const LoadedDataset data = load_dataset(args.positional().front());
  const BitMatrix& g = data.genotypes;
  std::printf("SNPs:     %zu\n", g.snps());
  std::printf("samples:  %zu\n", g.samples());
  std::printf("words/SNP:%zu (padded stride %zu)\n", g.words_per_snp(),
              g.stride_words());

  std::size_t mono = 0;
  std::array<std::size_t, 10> spectrum{};
  for (std::size_t s = 0; s < g.snps(); ++s) {
    const double f = g.allele_frequency(s);
    if (f <= 0.0 || f >= 1.0) {
      ++mono;
      continue;
    }
    const double folded = std::min(f, 1.0 - f);
    const auto bin = std::min<std::size_t>(
        9, static_cast<std::size_t>(folded * 20.0));
    ++spectrum[bin];
  }
  std::printf("monomorphic SNPs: %zu\n\nfolded allele-frequency spectrum:\n",
              mono);
  for (std::size_t b = 0; b < spectrum.size(); ++b) {
    std::printf("  [%4.2f,%4.2f) %6zu %s\n",
                static_cast<double>(b) * 0.05,
                static_cast<double>(b + 1) * 0.05, spectrum[b],
                std::string(spectrum[b] * 50 / std::max<std::size_t>(
                                                   1, g.snps()),
                            '#')
                    .c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) {
    std::fprintf(
        stderr,
        "usage: ldla_cli "
        "<simulate|compute|sweep|cross|decay|blocks|convert|info>"
        " [options]\n"
        "       ldla_cli <command> --help\n");
    return 2;
  }
  const std::string cmd = argv[1];
  // Shift the subcommand out of argv.
  std::vector<const char*> rest;
  rest.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) rest.push_back(argv[i]);
  const int rest_argc = static_cast<int>(rest.size());

  if (cmd == "simulate") return cmd_simulate(rest_argc, rest.data());
  if (cmd == "compute") return cmd_compute(rest_argc, rest.data());
  if (cmd == "sweep") return cmd_sweep(rest_argc, rest.data());
  if (cmd == "convert") return cmd_convert(rest_argc, rest.data());
  if (cmd == "cross") return cmd_cross(rest_argc, rest.data());
  if (cmd == "decay") return cmd_decay(rest_argc, rest.data());
  if (cmd == "blocks") return cmd_blocks(rest_argc, rest.data());
  if (cmd == "info") return cmd_info(rest_argc, rest.data());
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
