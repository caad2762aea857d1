// Tests for the debug/checked-build contract layer: bounds-checked accessors
// on BitMatrix / CountMatrix / packed-panel views throw ContractViolation,
// and the noexcept AlignedBuffer accessor terminates (death test).
//
// This binary is intentionally single-threaded: death tests fork, and a
// fork from a multi-threaded process is undefined enough that TSan
// (correctly) complains. Keep any pool/thread usage out of this file.

#include <cstdint>

#include <gtest/gtest.h>

#include "core/bit_matrix.hpp"
#include "core/gemm/count_matrix.hpp"
#include "core/gemm/packing.hpp"
#include "util/aligned_buffer.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

// The bounds checks compile away in plain release builds (NDEBUG without
// LDLA_BOUNDS_CHECKS); skip rather than fail there so the suite stays green
// under every preset.
#define LDLA_REQUIRE_CHECKED_BUILD()                                     \
  do {                                                                   \
    if (!LDLA_CHECKED_BUILD) {                                           \
      GTEST_SKIP() << "bounds checks disabled in this configuration";    \
    }                                                                    \
  } while (0)

TEST(Contracts, BitMatrixRowDataOutOfRangeThrows) {
  LDLA_REQUIRE_CHECKED_BUILD();
  BitMatrix m(4, 100);
  EXPECT_THROW((void)m.row_data(4), ContractViolation);
  const BitMatrix& cm = m;
  EXPECT_THROW((void)cm.row_data(4), ContractViolation);
  EXPECT_NO_THROW((void)m.row_data(3));
}

TEST(Contracts, BitMatrixViewRowOutOfRangeThrows) {
  LDLA_REQUIRE_CHECKED_BUILD();
  BitMatrix m(8, 64);
  const BitMatrixView v = m.view(2, 6);
  EXPECT_NO_THROW((void)v.row(3));
  EXPECT_THROW((void)v.row(4), ContractViolation);
}

TEST(Contracts, CountMatrixRefAtOutOfRangeThrows) {
  LDLA_REQUIRE_CHECKED_BUILD();
  CountMatrix c(3, 5);
  const CountMatrixRef ref = c.ref();
  EXPECT_NO_THROW((void)ref.at(2, 4));
  EXPECT_THROW((void)ref.at(3, 0), ContractViolation);
  EXPECT_THROW((void)ref.at(0, 5), ContractViolation);
}

TEST(Contracts, PackedPanelSliverOutOfRangeThrows) {
  LDLA_REQUIRE_CHECKED_BUILD();
  BitMatrix m(10, 256);
  const std::size_t r = 4, ku = 2, kc = m.words_per_snp();
  AlignedBuffer<std::uint64_t> buf(packed_panel_words(m.snps(), kc, r, ku));
  pack_panel(m.view(), 0, m.snps(), 0, kc, r, ku, buf.data());
  const PackedPanelView panel{buf.data(), 3, r, kc};  // ceil(10 / 4) slivers
  EXPECT_NO_THROW((void)panel.sliver(2));
  EXPECT_THROW((void)panel.sliver(3), ContractViolation);
}

using ContractDeathTest = ::testing::Test;

TEST(ContractDeathTest, AlignedBufferIndexOutOfRangeTerminates) {
  LDLA_REQUIRE_CHECKED_BUILD();
  // operator[] is noexcept, so the ContractViolation thrown by the bounds
  // check cannot unwind: std::terminate fires. That is the intended
  // behavior for the hottest accessor — no exception-path code in kernels.
  AlignedBuffer<std::uint32_t> buf(8);
  EXPECT_DEATH((void)buf[8], "buffer index out of range");
}

TEST(ContractDeathTest, ConstAlignedBufferIndexOutOfRangeTerminates) {
  LDLA_REQUIRE_CHECKED_BUILD();
  const AlignedBuffer<std::uint64_t> buf(4);
  EXPECT_DEATH((void)buf[100], "buffer index out of range");
}

TEST(Contracts, ExpectIsActiveInEveryBuild) {
  // LDLA_EXPECT does not depend on LDLA_CHECKED_BUILD — it guards public
  // API boundaries unconditionally.
  BitMatrix m(2, 10);
  EXPECT_THROW(m.set(2, 0, true), ContractViolation);
  EXPECT_THROW((void)m.get(0, 10), ContractViolation);
}

TEST(Contracts, ViolationMessageNamesTheRequirement) {
  LDLA_REQUIRE_CHECKED_BUILD();
  BitMatrix m(2, 10);
  try {
    (void)m.row_data(7);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row index out of range"), std::string::npos) << what;
    EXPECT_NE(what.find("bit_matrix.hpp"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace ldla
