#include "util/aligned_buffer.hpp"

#include <sys/mman.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "util/contract.hpp"

namespace ldla::detail {

namespace {

// Allocations this large (the dense LD matrices) are backed by
// transparent huge pages where the kernel grants them on request: one
// fault per 2 MiB instead of per 4 KiB page when the team first touches
// the output, and far fewer TLB misses on its transposed writes.
constexpr std::size_t kHugePageMinBytes = std::size_t{64} << 20;
constexpr std::uintptr_t kHugePageBytes = std::uintptr_t{2} << 20;

void advise_huge_pages(void* p, std::size_t bytes) noexcept {
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t mask = ~(kHugePageBytes - 1);
  const std::uintptr_t lo = (begin + kHugePageBytes - 1) & mask;
  const std::uintptr_t hi = (begin + bytes) & mask;
  // A hint only: kernels without THP reject it and the pages stay small.
  if (hi > lo) {
    (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
}

}  // namespace

void* aligned_alloc_bytes(std::size_t bytes, std::size_t alignment) {
  LDLA_EXPECT(alignment != 0 && (alignment & (alignment - 1)) == 0,
              "alignment must be a power of two");
  // std::aligned_alloc requires size to be a multiple of the alignment.
  if (bytes > SIZE_MAX - (alignment - 1)) throw std::bad_alloc{};
  const std::size_t rounded = (bytes + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded);
  if (p == nullptr) throw std::bad_alloc{};
  if (rounded >= kHugePageMinBytes) advise_huge_pages(p, rounded);
  return p;
}

void aligned_free_bytes(void* p) noexcept { std::free(p); }

}  // namespace ldla::detail
