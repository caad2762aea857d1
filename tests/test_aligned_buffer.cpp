#include "util/aligned_buffer.hpp"

#include <cstdint>
#include <new>
#include <utility>

#include <gtest/gtest.h>

#include "core/gemm/count_matrix.hpp"
#include "core/ld.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

TEST(AlignedBuffer, DefaultConstructedIsEmpty) {
  AlignedBuffer<std::uint64_t> buf;
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.data(), nullptr);
}

TEST(AlignedBuffer, AllocatesRequestedCount) {
  AlignedBuffer<std::uint64_t> buf(1000);
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_FALSE(buf.empty());
  ASSERT_NE(buf.data(), nullptr);
}

TEST(AlignedBuffer, DefaultAlignmentIsCacheLine) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    AlignedBuffer<std::uint32_t> buf(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u)
        << "allocation of " << n << " elements not 64-byte aligned";
  }
}

TEST(AlignedBuffer, HonorsCustomAlignment) {
  AlignedBuffer<std::uint8_t> buf(10, 4096);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 4096, 0u);
}

TEST(AlignedBuffer, RejectsNonPowerOfTwoAlignment) {
  EXPECT_THROW(AlignedBuffer<std::uint8_t>(16, 48), ContractViolation);
  EXPECT_THROW(AlignedBuffer<std::uint8_t>(16, 0), ContractViolation);
}

TEST(AlignedBuffer, RejectsSizesThatWrap) {
  // count * sizeof(T) wraps: the buffer must not report a size it lacks.
  EXPECT_THROW(AlignedBuffer<double>(SIZE_MAX / 4), std::bad_alloc);
  // The byte count fits, but rounding it up to the alignment wraps to 0.
  EXPECT_THROW(AlignedBuffer<std::uint8_t>(SIZE_MAX - 3), std::bad_alloc);
}

TEST(AlignedBuffer, MatricesRejectElementCountsThatWrap) {
  // rows * cols = 2^64 wraps to 0 elements.
  const std::size_t big = std::size_t{1} << 32;
  EXPECT_THROW(LdMatrix(big, big), std::bad_alloc);
  EXPECT_THROW(CountMatrix(big, big), std::bad_alloc);
}

TEST(AlignedBuffer, ZeroFillsEveryByte) {
  AlignedBuffer<std::uint64_t> buf(257);
  for (auto& w : buf) w = ~std::uint64_t{0};
  buf.zero();
  for (const auto& w : buf) EXPECT_EQ(w, 0u);
}

TEST(AlignedBuffer, ElementAccessRoundTrips) {
  AlignedBuffer<std::uint32_t> buf(100);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint32_t>(i * 3 + 1);
  }
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf[i], static_cast<std::uint32_t>(i * 3 + 1));
  }
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<std::uint64_t> a(10);
  a[0] = 42;
  std::uint64_t* p = a.data();
  AlignedBuffer<std::uint64_t> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[0], 42u);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
}

TEST(AlignedBuffer, MoveAssignReleasesOldAllocation) {
  AlignedBuffer<std::uint64_t> a(10);
  AlignedBuffer<std::uint64_t> b(20);
  b = std::move(a);
  EXPECT_EQ(b.size(), 10u);
}

TEST(AlignedBuffer, SpanCoversWholeBuffer) {
  AlignedBuffer<std::uint64_t> buf(33);
  EXPECT_EQ(buf.span().size(), 33u);
  EXPECT_EQ(buf.span().data(), buf.data());
}

TEST(AlignedBuffer, ZeroSizedBufferIsSafe) {
  AlignedBuffer<std::uint64_t> buf(0);
  EXPECT_TRUE(buf.empty());
  buf.zero();  // must not crash
}

}  // namespace
}  // namespace ldla
