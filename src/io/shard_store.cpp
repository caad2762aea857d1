// Shard store implementation. This is the ONLY translation unit allowed to
// issue mmap/munmap/madvise/mincore (lint rule 8): every other layer sees
// shards as PackedBitMatrix references and residency as byte counts.

#include "io/shard_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "core/bit_transpose.hpp"
#include "core/gemm/kernel.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace ldla {
namespace {

// "LDLASH03": LDLA SHard store, format version 03. Version 01 also stored
// the data a pack derives (kinds, CSR offsets, prescaled lists, sliver
// flags); version 02 stored every sliver densely and a full-width
// transpose. Both are recognized only to name the remedy.
constexpr unsigned char kMagic[8] = {'L', 'D', 'L', 'A', 'S', 'H', '0', '3'};
constexpr unsigned char kMagicV01[8] = {'L', 'D', 'L', 'A', 'S', 'H', '0', '1'};
constexpr unsigned char kMagicV02[8] = {'L', 'D', 'L', 'A', 'S', 'H', '0', '2'};
constexpr std::size_t kHeaderU64s = 14;
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + kHeaderU64s * 8;
constexpr std::size_t kRecordU64s = 8;
constexpr std::size_t kRecordBytes = kRecordU64s * 8;
constexpr std::size_t kAlign = 64;  ///< every section offset (payload pointers
                                    ///< must satisfy AlignedBuffer alignment)

[[noreturn]] void bad(const std::string& what) {
  throw ParseError("shard store: " + what);
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// a * b, or ParseError when the product overflows (forged counts).
std::uint64_t mul_checked(std::uint64_t a, std::uint64_t b) {
  const __uint128_t wide = static_cast<__uint128_t>(a) * b;
  if (wide > std::numeric_limits<std::uint64_t>::max()) {
    bad("section size overflows (absurd element count)");
  }
  return static_cast<std::uint64_t>(wide);
}

/// The bytes of one sliver side holding `slivers` dense slivers: the exact
/// words-per-side formula of PackedBitMatrix::init_side_layout, in closed
/// form (every panel but the last holds kc words, so the padded panel sum
/// needs no per-panel walk — forged headers cannot make this slow). The
/// store never records a sliver extent; this is the only size it has.
std::uint64_t side_bytes(const ShardIndex& idx, std::uint64_t slivers,
                         std::uint64_t r) {
  const GemmPlan& plan = idx.plan;
  const std::uint64_t n_words = idx.n_words;
  const std::uint64_t k_padded = (n_words + plan.ku - 1) / plan.ku * plan.ku;
  const std::uint64_t kc = plan.kc_words < k_padded ? plan.kc_words : k_padded;
  const std::uint64_t panels = (n_words + kc - 1) / kc;
  const std::uint64_t kcp_full = (kc + plan.ku - 1) / plan.ku * plan.ku;
  const std::uint64_t last_kc = n_words - (panels - 1) * kc;
  const std::uint64_t kcp_last = (last_kc + plan.ku - 1) / plan.ku * plan.ku;
  const __uint128_t kcp_sum =
      static_cast<__uint128_t>(panels - 1) * kcp_full + kcp_last;
  const __uint128_t bytes =
      static_cast<__uint128_t>(slivers) * r * kcp_sum * 8;
  if (bytes > std::numeric_limits<std::uint64_t>::max()) {
    bad("side payload size overflows (absurd geometry)");
  }
  return static_cast<std::uint64_t>(bytes);
}

/// Fill `rec`'s derived extents from its popcounts (`pop`, rec.rows()
/// u32s, in-bounds) in one pass: each column's kind under the plan's
/// threshold (column_kind, the packer's rule), and from it the count of
/// slivers holding a dense column on each side and, when a column is
/// sparse, of kept 8-row groups of the transpose — the counts sliver_slots
/// gives, with no kinds or offsets built.
void derive_extents(const ShardIndex& idx, const std::uint8_t* pop,
                    ShardRecord& rec) {
  const std::uint64_t mr = idx.plan.mr;
  const std::uint64_t nr = idx.plan.nr;
  // Dense slivers counted per grid, and the first row past the last one.
  std::uint64_t a_dense = 0, a_end = 0;
  std::uint64_t b_dense = 0, b_end = 0;
  std::uint64_t kept = 0, kept_end = 0;
  bool any_sparse = false;
  for (std::uint64_t i = 0; i < rec.rows(); ++i) {
    std::uint32_t c = 0;
    std::memcpy(&c, pop + i * 4, sizeof c);
    if (c > idx.n_samples) bad("popcount exceeds the sample count");
    if (column_kind(c, idx.n_samples, idx.plan.sparse_threshold) !=
        ColumnKind::kDense) {
      any_sparse = true;
      continue;
    }
    if (i >= a_end) {
      ++a_dense;
      a_end = (i / mr + 1) * mr;
    }
    if (i >= b_end) {
      ++b_dense;
      b_end = (i / nr + 1) * nr;
    }
    if (i >= kept_end) {
      ++kept;
      kept_end = (i / 8 + 1) * 8;
    }
  }
  rec.a_bytes = side_bytes(idx, a_dense, mr);
  rec.b_bytes = nr != mr ? side_bytes(idx, b_dense, nr) : 0;
  rec.sm_bytes = 0;
  if (any_sparse) {
    if (kept > std::numeric_limits<std::uint32_t>::max() / idx.n_samples) {
      bad("sample-major transpose too large for prescaled 32-bit lists");
    }
    rec.sm_bytes = idx.n_samples * kept;
  }
}

/// Validate one recorded extent and remember it for the overlap check.
/// `off` == 0 is the absent marker and must pair with `bytes` == 0.
void check_extent(std::uint64_t off, std::uint64_t bytes,
                  std::uint64_t file_bytes, const char* what,
                  std::vector<std::pair<std::uint64_t, std::uint64_t>>* spans) {
  if (off == 0) {
    if (bytes != 0) bad(std::string(what) + " has bytes but no offset");
    return;
  }
  if (bytes == 0) bad(std::string(what) + " has an offset but zero bytes");
  if (off % kAlign != 0) bad(std::string(what) + " offset is not 64B aligned");
  if (off < kHeaderBytes) bad(std::string(what) + " overlaps the header");
  if (off > file_bytes || bytes > file_bytes - off) {
    bad(std::string(what) + " extends past the end of the file");
  }
  spans->emplace_back(off, bytes);
}

}  // namespace

ShardIndex parse_shard_index(const std::uint8_t* data, std::size_t size) {
  LDLA_EXPECT(data != nullptr || size == 0,
              "parse_shard_index requires a valid byte span");
  if (size < kHeaderBytes) bad("truncated header");
  if (std::memcmp(data, kMagicV01, sizeof(kMagicV01)) == 0 ||
      std::memcmp(data, kMagicV02, sizeof(kMagicV02)) == 0) {
    bad(std::string(reinterpret_cast<const char*>(data), 8) +
        " stores are no longer readable (format 03 stores each sliver "
        "once, as dense words or as lists); re-ingest the source with "
        "ldla_ingest");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) bad("bad magic");

  std::uint64_t h[kHeaderU64s];
  for (std::size_t i = 0; i < kHeaderU64s; ++i) {
    h[i] = read_u64(data + sizeof(kMagic) + i * 8);
  }
  ShardIndex out;
  out.n_snps = h[0];
  out.n_words = h[1];
  out.n_samples = h[2];
  const std::uint64_t arch = h[3];
  out.plan.mr = h[4];
  out.plan.nr = h[5];
  out.plan.ku = h[6];
  out.plan.kc_words = h[7];
  out.plan.mc = h[8];
  out.plan.nc = h[9];
  out.plan.sparse_threshold = h[10];
  const std::uint64_t shard_count = h[11];
  out.file_bytes = h[12];
  const std::uint64_t dir_off = h[13];

  if (out.n_snps == 0 || out.n_words == 0 || out.n_samples == 0) {
    bad("empty matrix dimensions");
  }
  if (out.n_snps > (std::uint64_t{1} << 48)) bad("absurd SNP count");
  if (out.n_samples >= (std::uint64_t{1} << 32)) bad("absurd sample count");
  if (out.n_words != words_for_bits(out.n_samples)) {
    bad("word count inconsistent with sample count");
  }
  // Plans come from resolve_plan, whose outputs are machine-bounded; a
  // header claiming parameters outside these ranges is forged, and the
  // bounds keep every later geometry product overflow-free.
  if (arch == 0 || arch > static_cast<std::uint64_t>(KernelArch::kAvx512Wide)) {
    bad("unknown or unresolved kernel arch");
  }
  out.plan.arch = static_cast<KernelArch>(arch);
  if (out.plan.mr == 0 || out.plan.mr > 64 || out.plan.nr == 0 ||
      out.plan.nr > 64 || out.plan.ku == 0 || out.plan.ku > 64) {
    bad("absurd register blocking");
  }
  if (out.plan.kc_words == 0 || out.plan.kc_words > (std::uint64_t{1} << 28) ||
      out.plan.mc == 0 || out.plan.mc > (std::uint64_t{1} << 28) ||
      out.plan.nc == 0 || out.plan.nc > (std::uint64_t{1} << 28)) {
    bad("absurd cache blocking");
  }
  if (out.plan.sparse_threshold > out.n_samples) {
    bad("sparse threshold exceeds the sample count");
  }
  if (out.file_bytes != size) bad("recorded file size does not match");
  if (shard_count == 0 || shard_count > out.n_snps) bad("absurd shard count");

  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  const std::uint64_t dir_bytes = mul_checked(shard_count, kRecordBytes);
  check_extent(dir_off, dir_bytes, out.file_bytes, "directory", &spans);
  if (dir_off == 0) bad("missing directory");

  out.shards.resize(shard_count);
  for (std::uint64_t s = 0; s < shard_count; ++s) {
    std::uint64_t r[kRecordU64s];
    for (std::size_t i = 0; i < kRecordU64s; ++i) {
      r[i] = read_u64(data + dir_off + s * kRecordBytes + i * 8);
    }
    ShardRecord& rec = out.shards[s];
    rec.row_begin = r[0];
    rec.row_end = r[1];
    rec.a_off = r[2];
    rec.b_off = r[3];
    rec.pop_off = r[4];
    rec.index_off = r[5];
    rec.index_count = r[6];
    rec.sm_off = r[7];

    // Shards must partition [0, n_snps) contiguously in order.
    const std::uint64_t expect_begin = s == 0 ? 0 : out.shards[s - 1].row_end;
    if (rec.row_begin != expect_begin || rec.row_end <= rec.row_begin ||
        rec.row_end > out.n_snps) {
      bad("shard rows do not partition the matrix");
    }
    if (s == shard_count - 1 && rec.row_end != out.n_snps) {
      bad("shards do not cover every SNP row");
    }
    const std::uint64_t rows = rec.rows();

    check_extent(rec.pop_off, mul_checked(rows, 4), out.file_bytes,
                 "popcounts", &spans);
    if (rec.pop_off == 0) bad("shard lacks its popcounts");
    if (rec.index_count > mul_checked(rows, out.n_samples)) {
      bad("absurd index-list count");
    }
    if ((rec.index_off != 0) != (rec.index_count != 0)) {
      bad("index list presence inconsistent with its count");
    }
    check_extent(rec.index_off, mul_checked(rec.index_count, 4),
                 out.file_bytes, "index lists", &spans);

    // Sliver and transpose extents are never recorded: they follow from
    // the popcounts under the plan's threshold, through the packer's own
    // rules, so a forged directory cannot smuggle an oversized (or
    // undersized) panel past the drivers. B is stored only when the tile
    // is not square.
    derive_extents(out, data + rec.pop_off, rec);
    check_extent(rec.a_off, rec.a_bytes, out.file_bytes, "A slivers", &spans);
    if (rec.b_off != 0 && out.plan.mr == out.plan.nr) {
      bad("B slivers recorded for a square register tile");
    }
    check_extent(rec.b_off, rec.b_bytes, out.file_bytes, "B slivers", &spans);
    check_extent(rec.sm_off, rec.sm_bytes, out.file_bytes,
                 "sample-major transpose", &spans);
  }

  // No two recorded extents may overlap (a forged directory aliasing the
  // same bytes into two shards, or a payload into the directory).
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i - 1].first + spans[i - 1].second > spans[i].first) {
      bad("overlapping extents");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Writer

namespace {

void put_u64(std::ofstream& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(v));
  out.write(buf, sizeof(buf));
}

/// Pad to the 64-byte alignment boundary, write `bytes` of `data`, and
/// return the section's file offset.
std::uint64_t put_section(std::ofstream& out, const void* data,
                          std::uint64_t bytes) {
  static const char zeros[kAlign] = {};
  std::uint64_t pos = static_cast<std::uint64_t>(out.tellp());
  if (pos % kAlign != 0) {
    out.write(zeros, static_cast<std::streamsize>(kAlign - pos % kAlign));
    pos += kAlign - pos % kAlign;
  }
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  return pos;
}

void put_header(std::ofstream& out, const ShardIndex& idx,
                std::uint64_t shard_count, std::uint64_t dir_off) {
  out.write(reinterpret_cast<const char*>(kMagic), sizeof(kMagic));
  put_u64(out, idx.n_snps);
  put_u64(out, idx.n_words);
  put_u64(out, idx.n_samples);
  put_u64(out, static_cast<std::uint64_t>(idx.plan.arch));
  put_u64(out, idx.plan.mr);
  put_u64(out, idx.plan.nr);
  put_u64(out, idx.plan.ku);
  put_u64(out, idx.plan.kc_words);
  put_u64(out, idx.plan.mc);
  put_u64(out, idx.plan.nc);
  put_u64(out, idx.plan.sparse_threshold);
  put_u64(out, shard_count);
  put_u64(out, idx.file_bytes);
  put_u64(out, dir_off);
}

}  // namespace

void write_shard_store(const std::string& path, const BitMatrixView& m,
                       const GemmConfig& cfg, std::size_t rows_per_shard,
                       unsigned threads) {
  LDLA_EXPECT(!m.empty() && m.n_samples != 0,
              "write_shard_store requires a non-empty matrix");
  LDLA_EXPECT(rows_per_shard != 0, "rows_per_shard must be positive");

  ShardIndex idx;
  idx.n_snps = m.n_snps;
  idx.n_words = m.n_words;
  idx.n_samples = m.n_samples;
  idx.plan = resolve_plan(cfg, m.n_words);
  // A threshold beyond the sample count classifies columns identically to
  // one at the count; persist the clamp so the header bound stays checkable.
  idx.plan.sparse_threshold =
      std::min(idx.plan.sparse_threshold, m.n_samples);
  const std::size_t shard_count =
      (m.n_snps + rows_per_shard - 1) / rows_per_shard;

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("shard store: cannot create " + path);
  put_header(out, idx, shard_count, 0);  // placeholder: backpatched below

  // Pack and serialize shard-at-a-time: one pack alive at once, so ingest
  // memory stays O(rows_per_shard) however large the matrix is.
  std::vector<ShardRecord> records(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t r0 = s * rows_per_shard;
    const std::size_t r1 = std::min(m.n_snps, r0 + rows_per_shard);
    const BitMatrixView sub{m.row(r0), r1 - r0, m.n_words, m.stride_words,
                            m.n_samples};
    const PackedBitMatrix pk(sub, idx.plan, PackSides::kBoth, threads);
    const SparseColumns& sp = pk.sparse_columns();
    ShardRecord& rec = records[s];
    rec.row_begin = r0;
    rec.row_end = r1;
    if (pk.a_data_words() != 0) {
      rec.a_off = put_section(out, pk.a_data(), pk.a_data_words() * 8);
    }
    if (pk.b_data_words() != 0) {  // mr != nr: distinct B payload
      rec.b_off = put_section(out, pk.b_data(), pk.b_data_words() * 8);
    }
    rec.pop_off = put_section(out, sp.popcount.data(), sub.n_snps * 4);
    rec.index_count = sp.index.size();
    if (rec.index_count != 0) {
      rec.index_off = put_section(out, sp.index.data(), rec.index_count * 4);
    }
    if (pk.sample_major_stride() != 0) {
      rec.sm_off = put_section(out, pk.sample_major().bytes,
                               m.n_samples * pk.sample_major_stride());
    }
  }

  // Directory, then the backpatched header.
  std::vector<std::uint64_t> dir;
  dir.reserve(shard_count * kRecordU64s);
  for (const ShardRecord& rec : records) {
    const std::uint64_t fields[kRecordU64s] = {
        rec.row_begin, rec.row_end,   rec.a_off,       rec.b_off,
        rec.pop_off,   rec.index_off, rec.index_count, rec.sm_off};
    dir.insert(dir.end(), fields, fields + kRecordU64s);
  }
  const std::uint64_t dir_off =
      put_section(out, dir.data(), dir.size() * 8);
  idx.file_bytes = static_cast<std::uint64_t>(out.tellp());
  out.seekp(0);
  put_header(out, idx, shard_count, dir_off);
  out.flush();
  if (!out) throw Error("shard store: write failed for " + path);
}

// ---------------------------------------------------------------------------
// ShardStore

ShardStore::~ShardStore() { unmap(); }

ShardStore::ShardStore(ShardStore&& other) noexcept { *this = std::move(other); }

ShardStore& ShardStore::operator=(ShardStore&& other) noexcept {
  if (this != &other) {
    unmap();
    map_ = std::exchange(other.map_, nullptr);
    map_size_ = std::exchange(other.map_size_, 0);
    index_ = std::move(other.index_);
    shard_bytes_ = std::move(other.shard_bytes_);
    total_payload_bytes_ = std::exchange(other.total_payload_bytes_, 0);
    max_shard_bytes_ = std::exchange(other.max_shard_bytes_, 0);
    // Moving a store with concurrent users is outside the contract; both
    // locks are taken only to keep the guarded accesses analyzable.
    MutexLock lock(mu_);
    MutexLock other_lock(other.mu_);
    wrappers_ = std::move(other.wrappers_);
    resident_ = std::exchange(other.resident_, 0);
  }
  return *this;
}

void ShardStore::unmap() noexcept {
  if (map_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(map_), map_size_);
    map_ = nullptr;
    map_size_ = 0;
  }
}

namespace {

/// "arch=avx2 mr=4 nr=4 ku=4 kc=256" — the geometry half of the open
/// check's error message.
std::string plan_geometry(const GemmPlan& p) {
  std::string s = "arch=" + kernel_arch_name(p.arch);
  s += " mr=" + std::to_string(p.mr);
  s += " nr=" + std::to_string(p.nr);
  s += " ku=" + std::to_string(p.ku);
  s += " kc=" + std::to_string(p.kc_words);
  return s;
}

/// One section of a shard: its extent (offset 0 = absent, with 0 bytes)
/// and whether the kernels alias it in place. materialize() copies and
/// validates the other sections; shard() faults the aliased ones in.
struct Section {
  std::uint64_t off = 0;
  std::uint64_t bytes = 0;
  bool aliased = false;
};

/// The one list of a shard's sections, for a record parse_shard_index
/// accepted. open() sums it into the shard's byte accounting, prefetch()
/// and release() advise it to the kernel, and shard() touches its aliased
/// part, so the four cannot disagree on what a shard is.
std::array<Section, 5> shard_sections(const ShardRecord& rec) {
  return {Section{rec.a_off, rec.a_bytes, true},
          Section{rec.b_off, rec.b_bytes, true},
          Section{rec.pop_off, rec.rows() * 4},
          Section{rec.index_off, rec.index_count * 4},
          Section{rec.sm_off, rec.sm_bytes, true}};
}

}  // namespace

ShardStore ShardStore::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw Error("shard store: cannot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    throw Error("shard store: cannot stat " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  // MAP_PRIVATE + PROT_READ: the store is immutable at compute time, and
  // MADV_DONTNEED on a private file mapping drops this process's pages
  // (re-faulting from the page cache / disk on the next touch).
  void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (p == MAP_FAILED) throw Error("shard store: mmap failed for " + path);

  ShardStore s;
  s.map_ = static_cast<const std::uint8_t*>(p);
  s.map_size_ = size;
  s.index_ = parse_shard_index(s.map_, size);  // unmaps via dtor on throw
  const GemmPlan& stored = s.index_.plan;
  // The header's plan must name a variant the registry actually holds AND
  // a family this CPU can run — a store packed by a build with a different
  // kernel grid fails here with the remedy spelled out, not deep inside
  // kernel_for_plan at first compute.
  if (find_kernel(stored.arch, stored.mr, stored.nr, stored.ku) == nullptr ||
      !kernel_available(stored.arch)) {
    throw Error("shard store " + path + ": packed for kernel variant (" +
                plan_geometry(stored) +
                ") that this build/machine cannot run; re-ingest with "
                "ldla_ingest (--arch picks a portable family)");
  }

  s.shard_bytes_.reserve(s.index_.shards.size());
  for (const ShardRecord& rec : s.index_.shards) {
    std::uint64_t bytes = 0;
    for (const Section& sec : shard_sections(rec)) {
      bytes += sec.bytes;
    }
    s.shard_bytes_.push_back(static_cast<std::size_t>(bytes));
    s.total_payload_bytes_ += bytes;
    s.max_shard_bytes_ = std::max<std::size_t>(s.max_shard_bytes_, bytes);
  }
  {
    MutexLock lock(s.mu_);
    s.wrappers_.resize(s.index_.shards.size());
  }
  return s;
}

const ShardRecord& ShardStore::record(std::size_t i) const {
  LDLA_EXPECT(i < index_.shards.size(), "shard index out of range");
  return index_.shards[i];
}

std::size_t ShardStore::shard_bytes(std::size_t i) const {
  LDLA_EXPECT(i < shard_bytes_.size(), "shard index out of range");
  return shard_bytes_[i];
}

std::vector<std::uint64_t> ShardStore::allele_counts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(index_.n_snps);
  for (const ShardRecord& rec : index_.shards) {
    const auto* pop =
        reinterpret_cast<const std::uint32_t*>(map_ + rec.pop_off);
    counts.insert(counts.end(), pop, pop + rec.rows());
  }
  return counts;
}

void ShardStore::prefetch(std::size_t i) const {
  const long page = ::sysconf(_SC_PAGESIZE);
  const std::uint64_t mask = ~static_cast<std::uint64_t>(page - 1);
  for (const Section& sec : shard_sections(record(i))) {
    if (sec.bytes == 0) continue;
    const std::uint64_t begin = sec.off & mask;
    const std::uint64_t end = sec.off + sec.bytes;
    ::madvise(const_cast<std::uint8_t*>(map_ + begin),
              static_cast<std::size_t>(end - begin), MADV_WILLNEED);
  }
}

void ShardStore::touch_extent(std::uint64_t off, std::uint64_t bytes) const {
  if (off == 0 || bytes == 0) return;
  // One volatile load per page faults the extent in; the compiler cannot
  // elide the walk, so io_bytes_read reflects real page traffic.
  const std::uint64_t kPage = 4096;
  const volatile std::uint8_t* p = map_ + off;
  for (std::uint64_t b = 0; b < bytes; b += kPage) {
    (void)p[b];
  }
  (void)p[bytes - 1];
}

std::unique_ptr<PackedBitMatrix> ShardStore::materialize(std::size_t i) const {
  const ShardRecord& rec = record(i);
  const std::uint64_t rows = rec.rows();
  const std::uint64_t n = index_.n_samples;

  // The index parse bounded every extent (checking the popcounts against
  // the sample count on the way); here the list *contents* get their
  // one-time semantic validation, so the kernels can gather unchecked.
  // Kinds and CSR offsets are derived from the popcounts by the packer's
  // own rule, so only the lists themselves can disagree with them.
  const auto* pop = reinterpret_cast<const std::uint32_t*>(map_ + rec.pop_off);
  SparseColumns sp = classify_popcounts({pop, pop + rows}, n,
                                        index_.plan.sparse_threshold);
  if (sp.offset.back() != rec.index_count) {
    bad("index list count disagrees with the popcount-derived total");
  }
  if (rec.index_count != 0) {
    const auto* idx =
        reinterpret_cast<const std::uint32_t*>(map_ + rec.index_off);
    sp.index.assign(idx, idx + rec.index_count);
  }
  // Each list must hold its samples once each, in order: a forged
  // duplicate would be counted twice by the kernels.
  for (std::uint64_t c = 0; c < rows; ++c) {
    for (std::uint64_t e = sp.offset[c]; e < sp.offset[c + 1]; ++e) {
      if (sp.index[e] >= n) bad("index entry out of range");
      if (e > sp.offset[c] && sp.index[e - 1] >= sp.index[e]) {
        bad("index list not strictly increasing");
      }
    }
  }

  const auto at = [&](std::uint64_t off) {
    return off != 0 ? map_ + off : nullptr;
  };
  ExternalPack ext;
  ext.plan = index_.plan;
  ext.n_snps = rows;
  ext.n_words = index_.n_words;
  ext.n_samples = n;
  ext.a_data = reinterpret_cast<const std::uint64_t*>(at(rec.a_off));
  ext.b_data = reinterpret_cast<const std::uint64_t*>(at(rec.b_off));
  ext.sample_major = at(rec.sm_off);
  ext.sparse = std::move(sp);
  return std::make_unique<PackedBitMatrix>(
      PackedBitMatrix::from_external(std::move(ext)));
}

bool ShardStore::verify_shard_popcounts(std::size_t i) const {
  LDLA_EXPECT(i < index_.shards.size(), "shard index out of range");
  const ShardRecord& rec = record(i);
  const auto* pop = reinterpret_cast<const std::uint32_t*>(map_ + rec.pop_off);
  // Rebuild the rows from the payloads — dense slivers where they exist,
  // lists elsewhere — and hold every other payload to them: the recorded
  // popcounts, the lists of columns inside dense slivers, and the kept
  // transpose groups.
  const std::unique_ptr<PackedBitMatrix> pm = materialize(i);
  const BitMatrix m = unpack_packed(*pm);
  for (std::uint64_t c = 0; c < rec.rows(); ++c) {
    if (m.derived_count(c) != pop[c]) return false;
  }
  const SparseColumns& sc = pm->sparse_columns();
  if (build_sparse_columns(m.view(), sc.threshold).index != sc.index) {
    return false;
  }
  if (!pm->has_sample_major()) return true;
  const SampleMajor& sm = pm->sample_major();
  const std::size_t bytes = index_.n_samples * sm.row_bytes;
  std::vector<std::uint8_t> want(bytes);
  transpose_groups_into(m.view(), sm.group_slot.data(), want.data(),
                        sm.row_bytes);
  return bytes == 0 || std::memcmp(want.data(), sm.bytes, bytes) == 0;
}

const PackedBitMatrix& ShardStore::shard(std::size_t i) {
  {
    MutexLock lock(mu_);
    LDLA_EXPECT(i < wrappers_.size(), "shard index out of range");
    if (wrappers_[i]) return *wrappers_[i];
  }
  // Build outside the lock: the prefetch task materializes one shard while
  // the caller thread serves lookups of already-resident ones. The stream
  // driver never materializes the same shard from two threads at once
  // (current-pair shards are acquired before the next-pair task launches),
  // so the double-checked insert below is a correctness backstop, not a
  // dedup path.
  std::unique_ptr<PackedBitMatrix> built = materialize(i);
  {
    // materialize() faulted the metadata sections by copying/validating
    // them; what remains cold are the zero-copy payloads the kernels will
    // alias (slivers and the transpose). Fault them here, off the compute
    // path when called from the prefetch task, and account the whole
    // shard's payload to io_bytes_read.
    LDLA_TRACE_SPAN(kIo);
    for (const Section& sec : shard_sections(record(i))) {
      if (sec.aliased) touch_extent(sec.off, sec.bytes);
    }
    LDLA_TRACE_ADD_IO_READ(shard_bytes_[i]);
    LDLA_METRICS_ONLY(
        static metrics::Counter& c_mat = metrics::counter(
            "ldla_shard_materializations_total",
            "shards materialized (packed payloads faulted in)");
        c_mat.inc();)
  }
  MutexLock lock(mu_);
  if (!wrappers_[i]) {
    wrappers_[i] = std::move(built);
    resident_ += shard_bytes_[i];
  }
  return *wrappers_[i];
}

bool ShardStore::is_materialized(std::size_t i) const {
  MutexLock lock(mu_);
  LDLA_EXPECT(i < wrappers_.size(), "shard index out of range");
  return wrappers_[i] != nullptr;
}

void ShardStore::release(std::size_t i) {
  {
    MutexLock lock(mu_);
    LDLA_EXPECT(i < wrappers_.size(), "shard index out of range");
    if (!wrappers_[i]) return;
    wrappers_[i].reset();
    resident_ -= shard_bytes_[i];
  }
  LDLA_METRICS_ONLY(
      static metrics::Counter& c_rel = metrics::counter(
          "ldla_shard_releases_total",
          "shards released back to the page cache");
      c_rel.inc();)
  // Hand the pages back: page-align each extent inward-safely (WILLNEED in
  // prefetch() aligns outward; DONTNEED must not clip a neighboring
  // still-resident extent, so only fully-owned pages are dropped).
  const std::uint64_t p = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  for (const Section& sec : shard_sections(record(i))) {
    const std::uint64_t begin = (sec.off + p - 1) / p * p;
    const std::uint64_t end = (sec.off + sec.bytes) / p * p;
    if (sec.bytes == 0 || end <= begin) continue;
    ::madvise(const_cast<std::uint8_t*>(map_ + begin),
              static_cast<std::size_t>(end - begin), MADV_DONTNEED);
  }
}

std::size_t ShardStore::resident_bytes() const {
  MutexLock lock(mu_);
  return resident_;
}

std::size_t ShardStore::probe_resident_bytes() const {
  const long page = ::sysconf(_SC_PAGESIZE);
  const std::size_t pages =
      (map_size_ + static_cast<std::size_t>(page) - 1) /
      static_cast<std::size_t>(page);
  std::vector<unsigned char> vec(pages);
  if (::mincore(const_cast<std::uint8_t*>(map_), map_size_, vec.data()) != 0) {
    return 0;  // probe unavailable (informational API; never throws)
  }
  std::size_t resident = 0;
  for (unsigned char v : vec) {
    resident += (v & 1U) != 0 ? static_cast<std::size_t>(page) : 0;
  }
  return resident;
}

ShardStore open_shard_store(const std::string& path) {
  LDLA_EXPECT(!path.empty(), "open_shard_store needs a file path");
  return ShardStore::open(path);
}

}  // namespace ldla
