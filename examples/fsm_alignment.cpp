// Finite-sites-model LD (Section VII): Zaykin's T statistic over a DNA
// alignment with four nucleotide states and gaps, computed as one popcount
// product over the row-interleaved nucleotide bit-planes (fsm_t_matrix).
// Simulates an alignment where one block of columns coevolves and shows T
// separating it from the background.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "ldla.hpp"
#include "sim/rng.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

// Simulate a small DNA alignment: most columns draw states independently;
// columns inside the "linked block" copy a shared pattern with noise.
std::vector<std::string> simulate_alignment(std::size_t columns,
                                            std::size_t sequences,
                                            std::size_t block_begin,
                                            std::size_t block_end,
                                            double gap_rate,
                                            std::uint64_t seed) {
  ldla::Rng rng(seed);
  const char nucs[] = {'A', 'C', 'G', 'T'};

  // Shared pattern for the linked block: a partition of the sequences.
  std::vector<unsigned> pattern(sequences);
  for (auto& p : pattern) p = static_cast<unsigned>(rng.next_below(2));

  std::vector<std::string> cols(columns);
  for (std::size_t c = 0; c < columns; ++c) {
    cols[c].resize(sequences);
    const bool linked = c >= block_begin && c < block_end;
    // Each column maps the two pattern groups to two random nucleotides.
    const char a = nucs[rng.next_below(4)];
    char b = nucs[rng.next_below(4)];
    while (b == a) b = nucs[rng.next_below(4)];
    for (std::size_t s = 0; s < sequences; ++s) {
      if (rng.next_bool(gap_rate)) {
        cols[c][s] = '-';
      } else if (linked) {
        // 5% noise keeps the signal realistic.
        const unsigned group =
            rng.next_bool(0.05) ? 1 - pattern[s] : pattern[s];
        cols[c][s] = group == 0 ? a : b;
      } else {
        cols[c][s] = nucs[rng.next_below(4)];
      }
    }
  }
  return cols;
}

}  // namespace

int main(int argc, char** argv) try {
  ldla::ArgParser args("fsm_alignment",
                       "finite-sites LD (Zaykin T) over a DNA alignment");
  args.add_option("columns", "alignment columns (SNPs)", "60");
  args.add_option("sequences", "aligned sequences", "300");
  args.add_option("gap-rate", "per-cell gap probability", "0.05");
  args.add_option("seed", "simulation seed", "17");
  if (!args.parse(argc, argv)) return 0;

  const auto columns = static_cast<std::size_t>(args.integer("columns"));
  const auto sequences = static_cast<std::size_t>(args.integer("sequences"));
  const std::size_t block_begin = columns / 3;
  const std::size_t block_end = 2 * columns / 3;

  const auto alignment = simulate_alignment(
      columns, sequences, block_begin, block_end, args.real("gap-rate"),
      static_cast<std::uint64_t>(args.integer("seed")));
  const ldla::FsmMatrix fsm = ldla::FsmMatrix::from_snp_strings(alignment);

  std::printf(
      "alignment: %zu columns x %zu sequences, coevolving block = [%zu, %zu)"
      "\n",
      columns, sequences, block_begin, block_end);

  ldla::Timer timer;
  const ldla::LdMatrix t = ldla::fsm_t_matrix(fsm);
  std::printf("Zaykin T for %zu pairs (one popcount product) in %.3f s\n\n",
              columns * (columns + 1) / 2, timer.seconds());

  double in_sum = 0, out_sum = 0;
  std::size_t in_n = 0, out_n = 0;
  for (std::size_t i = 0; i < columns; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double v = t(i, j);
      if (!std::isfinite(v)) continue;
      const bool both_in = i >= block_begin && i < block_end &&
                           j >= block_begin && j < block_end;
      if (both_in) {
        in_sum += v;
        ++in_n;
      } else {
        out_sum += v;
        ++out_n;
      }
    }
  }
  ldla::Table table({"pair class", "mean T", "pairs"});
  table.add_row({"within coevolving block",
                 ldla::fmt_fixed(in_sum / static_cast<double>(in_n), 2),
                 std::to_string(in_n)});
  table.add_row({"background",
                 ldla::fmt_fixed(out_sum / static_cast<double>(out_n), 2),
                 std::to_string(out_n)});
  std::fputs(table.str().c_str(), stdout);
  std::printf("\nexpected: the coevolving block scores far above background.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
