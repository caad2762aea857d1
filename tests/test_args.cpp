#include "util/args.hpp"

#include <array>

#include <gtest/gtest.h>

#include "util/contract.hpp"

namespace ldla {
namespace {

ArgParser make_parser() {
  ArgParser p("prog", "test program");
  p.add_flag("verbose", "print more");
  p.add_option("snps", "number of SNPs", "100");
  p.add_option("rate", "mutation rate", "0.5");
  p.add_option("name", "dataset name", "");
  return p;
}

TEST(ArgParser, DefaultsApplyWithoutArguments) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_FALSE(p.flag("verbose"));
  EXPECT_EQ(p.integer("snps"), 100);
  EXPECT_DOUBLE_EQ(p.real("rate"), 0.5);
  EXPECT_EQ(p.str("name"), "");
}

TEST(ArgParser, ParsesSeparateValueForm) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--snps", "42", "--verbose"};
  ASSERT_TRUE(p.parse(4, argv));
  EXPECT_EQ(p.integer("snps"), 42);
  EXPECT_TRUE(p.flag("verbose"));
}

TEST(ArgParser, ParsesEqualsForm) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--rate=0.125", "--name=foo"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_DOUBLE_EQ(p.real("rate"), 0.125);
  EXPECT_EQ(p.str("name"), "foo");
}

TEST(ArgParser, CollectsPositionals) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "input.ms", "--snps", "5", "out.csv"};
  ASSERT_TRUE(p.parse(5, argv));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.ms");
  EXPECT_EQ(p.positional()[1], "out.csv");
}

TEST(ArgParser, RejectsUnknownOption) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--bogus"};
  EXPECT_THROW(p.parse(2, argv), Error);
}

TEST(ArgParser, RejectsMissingValue) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--snps"};
  EXPECT_THROW(p.parse(2, argv), Error);
}

TEST(ArgParser, RejectsValueOnFlag) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--verbose=yes"};
  EXPECT_THROW(p.parse(2, argv), Error);
}

TEST(ArgParser, RejectsNegativeInteger) {
  // Callers cast to unsigned counts: -1 must not become SIZE_MAX.
  for (const char* form : {"--snps=-1", "--snps=-42"}) {
    ArgParser p = make_parser();
    const std::array<const char*, 2> argv = {"prog", form};
    ASSERT_TRUE(p.parse(2, argv.data()));
    EXPECT_THROW((void)p.integer("snps"), Error) << form;
  }
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--snps", "0"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.integer("snps"), 0);
}

TEST(ArgParser, RejectsNonNumericInteger) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--snps", "12abc"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_THROW((void)p.integer("snps"), Error);
}

TEST(ArgParser, HelpShortCircuits) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, UsageListsOptions) {
  ArgParser p = make_parser();
  const std::string u = p.usage();
  EXPECT_NE(u.find("--snps"), std::string::npos);
  EXPECT_NE(u.find("--verbose"), std::string::npos);
  EXPECT_NE(u.find("default: 100"), std::string::npos);
}

TEST(ArgParser, RejectsDuplicateRegistration) {
  ArgParser p("prog", "x");
  p.add_flag("a", "first");
  EXPECT_THROW(p.add_flag("a", "again"), ContractViolation);
  EXPECT_THROW(p.add_option("a", "again", "1"), ContractViolation);
}

TEST(ArgParser, LookupOfUnregisteredNameThrows) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_THROW((void)p.flag("nope"), ContractViolation);
  EXPECT_THROW((void)p.str("nope"), ContractViolation);
}

}  // namespace
}  // namespace ldla
