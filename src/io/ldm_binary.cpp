#include "io/ldm_binary.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>

#include "util/contract.hpp"
#include "util/trace.hpp"

namespace ldla {

namespace {
constexpr std::array<char, 8> kMagic = {'L', 'D', 'L', 'A', 'B', 'M', '0', '1'};

// Payload bytes per read (rounded down to whole rows, at least one row);
// tests/test_io.cpp sizes its block-edge cases by it.
constexpr std::size_t kReadBlockBytes = std::size_t{1} << 20;

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw ParseError("ldm: truncated header");
  return v;
}
}  // namespace

void write_ldm(std::ostream& out, const BitMatrix& m) {
  LDLA_TRACE_SPAN(kIo);
  out.write(kMagic.data(), kMagic.size());
  write_u64(out, m.snps());
  write_u64(out, m.samples());
  for (std::size_t s = 0; s < m.snps(); ++s) {
    out.write(reinterpret_cast<const char*>(m.row_data(s)),
              static_cast<std::streamsize>(m.words_per_snp() *
                                           sizeof(std::uint64_t)));
  }
  if (!out) throw Error("ldm: write failed");
}

void write_ldm_file(const std::string& path, const BitMatrix& m) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open ldm file for writing: " + path);
  write_ldm(out, m);
}

BitMatrix read_ldm(std::istream& in) {
  LDLA_TRACE_SPAN(kIo);
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) throw ParseError("ldm: bad magic");
  const std::uint64_t snps = read_u64(in);
  const std::uint64_t samples = read_u64(in);
  if (samples >= (std::uint64_t{1} << 32)) {
    throw ParseError("ldm: sample count exceeds the 2^32 format limit");
  }
  // Zero-sample rows carry no payload bytes, so the stream-size guard below
  // cannot bound `snps` — a forged header could make us spin over billions
  // of phantom rows. Reject the degenerate shape outright.
  if (samples == 0 && snps != 0) {
    throw ParseError("ldm: SNP rows with zero samples");
  }
  // A forged header must not drive a huge allocation: when the stream is
  // seekable (files, string streams), require the advertised payload to fit
  // in the bytes that actually remain.
  const std::istream::pos_type here = in.tellg();
  if (here != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.clear();
    in.seekg(here);
    const auto remaining =
        static_cast<std::uint64_t>(std::max<std::streamoff>(0, end - here));
    const std::uint64_t words = words_for_bits(samples);
    if (words != 0 && snps > remaining / sizeof(std::uint64_t) / words) {
      throw ParseError("ldm: header advertises more payload than the stream");
    }
  }

  // The payload is read in blocks of whole rows straight into the matrix:
  // each block lands packed at its first row and is spread out to the row
  // stride in place, last row first so that no row is overwritten before
  // it has moved, and then the pad words are zeroed. Nothing is
  // zero-filled in advance.
  BitMatrix m = BitMatrix::uninitialized(snps, samples);
  const std::size_t row_bytes = m.words_per_snp() * sizeof(std::uint64_t);
  const std::size_t stride_bytes = m.stride_words() * sizeof(std::uint64_t);
  const std::size_t rows_per_block =
      row_bytes == 0 ? 1
                     : std::max<std::size_t>(1, kReadBlockBytes / row_bytes);
  for (std::size_t first = 0; first < m.snps(); first += rows_per_block) {
    const std::size_t rows = std::min(rows_per_block, m.snps() - first);
    char* base = reinterpret_cast<char*>(m.row_data(first));
    in.read(base, static_cast<std::streamsize>(rows * row_bytes));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got != rows * row_bytes) {
      throw ParseError("ldm: truncated payload at SNP " +
                       std::to_string(first + got / row_bytes));
    }
    for (std::size_t r = rows; r-- > 0;) {
      if (r != 0) {
        std::memmove(base + r * stride_bytes, base + r * row_bytes, row_bytes);
      }
      std::memset(base + r * stride_bytes + row_bytes, 0,
                  stride_bytes - row_bytes);
    }
  }
  if (!m.padding_is_clean()) {
    throw ParseError("ldm: payload has non-zero padding bits");
  }
  return m;
}

BitMatrix read_ldm_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open ldm file: " + path);
  return read_ldm(in);
}

}  // namespace ldla
