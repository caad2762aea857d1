#include "core/popcount.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.hpp"
#include "util/contract.hpp"

namespace ldla {
namespace {

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) w = rng.next_u64();
  return out;
}

std::uint64_t reference_count(const std::vector<std::uint64_t>& w) {
  std::uint64_t acc = 0;
  for (const auto x : w) acc += popcount_u64_swar(x);
  return acc;
}

TEST(PopcountSwar, SingleWordMatchesBuiltin) {
  Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t x = rng.next_u64();
    EXPECT_EQ(popcount_u64_swar(x),
              static_cast<std::uint64_t>(__builtin_popcountll(x)));
  }
  EXPECT_EQ(popcount_u64_swar(0), 0u);
  EXPECT_EQ(popcount_u64_swar(~std::uint64_t{0}), 64u);
  EXPECT_EQ(popcount_u64_swar(1), 1u);
}

TEST(PopcountMethods, NamesAreUnique) {
  std::vector<std::string> names;
  for (PopcountMethod m :
       {PopcountMethod::kAuto, PopcountMethod::kHardware, PopcountMethod::kSwar,
        PopcountMethod::kLut16, PopcountMethod::kPshufbSse,
        PopcountMethod::kHarleySealAvx2, PopcountMethod::kSimdExtract,
        PopcountMethod::kAvx512Vpopcnt}) {
    names.push_back(popcount_method_name(m));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

TEST(PopcountMethods, AvailableListIsConsistent) {
  for (PopcountMethod m : available_popcount_methods()) {
    EXPECT_TRUE(popcount_method_available(m))
        << popcount_method_name(m);
  }
  // Portable backends are always available.
  EXPECT_TRUE(popcount_method_available(PopcountMethod::kSwar));
  EXPECT_TRUE(popcount_method_available(PopcountMethod::kLut16));
}

// Property sweep: every available backend must agree with the SWAR oracle
// on every buffer size, including sizes that stress vector tails.
class PopcountBackend : public ::testing::TestWithParam<PopcountMethod> {};

TEST_P(PopcountBackend, CountMatchesOracleAcrossSizes) {
  const PopcountMethod m = GetParam();
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 16u, 17u,
                        31u, 63u, 64u, 65u, 100u, 256u, 1000u}) {
    const auto words = random_words(n, 0xabc + n);
    EXPECT_EQ(popcount_words(words, m), reference_count(words))
        << popcount_method_name(m) << " n=" << n;
  }
}

TEST_P(PopcountBackend, AndMatchesOracleAcrossSizes) {
  const PopcountMethod m = GetParam();
  for (std::size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 16u, 17u, 33u, 64u, 127u,
                        129u, 500u}) {
    const auto a = random_words(n, 0x111 + n);
    const auto b = random_words(n, 0x222 + n);
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expected += popcount_u64_swar(a[i] & b[i]);
    }
    EXPECT_EQ(popcount_and(a, b, m), expected)
        << popcount_method_name(m) << " n=" << n;
  }
}

TEST_P(PopcountBackend, And3MatchesOracleAcrossSizes) {
  const PopcountMethod m = GetParam();
  for (std::size_t n : {0u, 1u, 5u, 8u, 9u, 16u, 40u, 64u, 200u}) {
    const auto a = random_words(n, 0x333 + n);
    const auto b = random_words(n, 0x444 + n);
    const auto mask = random_words(n, 0x555 + n);
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expected += popcount_u64_swar(a[i] & b[i] & mask[i]);
    }
    EXPECT_EQ(popcount_and3(a, b, mask, m), expected)
        << popcount_method_name(m) << " n=" << n;
  }
}

TEST_P(PopcountBackend, AllZerosAndAllOnes) {
  const PopcountMethod m = GetParam();
  const std::vector<std::uint64_t> zeros(100, 0);
  const std::vector<std::uint64_t> ones(100, ~std::uint64_t{0});
  EXPECT_EQ(popcount_words(zeros, m), 0u);
  EXPECT_EQ(popcount_words(ones, m), 6400u);
  EXPECT_EQ(popcount_and(ones, zeros, m), 0u);
  EXPECT_EQ(popcount_and(ones, ones, m), 6400u);
}

INSTANTIATE_TEST_SUITE_P(
    AllAvailable, PopcountBackend,
    ::testing::ValuesIn(available_popcount_methods()),
    [](const ::testing::TestParamInfo<PopcountMethod>& param_info) {
      std::string name = popcount_method_name(param_info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Popcount, MismatchedSpansThrow) {
  const auto a = random_words(4, 1);
  const auto b = random_words(5, 2);
  EXPECT_THROW(popcount_and(a, b), ContractViolation);
  EXPECT_THROW(popcount_and3(a, a, b), ContractViolation);
}

TEST(Popcount, AutoPicksAnAvailableBackend) {
  const auto w = random_words(64, 9);
  EXPECT_EQ(popcount_words(w, PopcountMethod::kAuto), reference_count(w));
}

TEST(Popcount, ResolveMethodIsConcreteAndStable) {
  const PopcountMethod resolved = resolve_popcount_method();
  EXPECT_NE(resolved, PopcountMethod::kAuto);
  EXPECT_TRUE(popcount_method_available(resolved));
  EXPECT_EQ(resolve_popcount_method(resolved), resolved);
  EXPECT_EQ(resolve_popcount_method(PopcountMethod::kSwar),
            PopcountMethod::kSwar);
}

}  // namespace
}  // namespace ldla
