#include "aqua/common/string_util.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace aqua {
namespace {

TEST(SplitTest, Basic) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  const auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\nabc\r "), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(ToLowerTest, Basic) {
  EXPECT_EQ(ToLower("SELECT Count"), "select count");
  EXPECT_EQ(ToLower("abc123"), "abc123");
}

TEST(EqualsIgnoreCaseTest, Basic) {
  EXPECT_TRUE(EqualsIgnoreCase("auctionID", "AUCTIONid"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abcd"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("SELECT *", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(FormatDoubleTest, SixSignificantDigits) {
  EXPECT_EQ(FormatDouble(2.6), "2.6");
  EXPECT_EQ(FormatDouble(975.437), "975.437");
  EXPECT_EQ(FormatDouble(0.0576), "0.0576");
  EXPECT_EQ(FormatDouble(1000000.0), "1e+06");
}

TEST(FormatRoundTripTest, ShortestTextThatParsesBackExactly) {
  EXPECT_EQ(FormatRoundTrip(0.3), "0.3");
  EXPECT_EQ(FormatRoundTrip(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(FormatRoundTrip(1.0), "1");
  EXPECT_EQ(FormatRoundTrip(1.0 - 0x1p-52), "0.9999999999999998");
  for (const double v : {1.0 / 3.0, 2.0 / 7.0, 5e-324, 1.7976931348623157e308,
                         -0.0576, 123456789.125}) {
    EXPECT_EQ(std::strtod(FormatRoundTrip(v).c_str(), nullptr), v) << FormatRoundTrip(v);
  }
}

// ParseDouble accepts what std::stod accepts, and subnormals besides; it
// rejects out-of-range values and trailing junk.
TEST(ParseDoubleTest, AcceptsWhatStodAcceptsPlusSubnormals) {
  struct Case {
    const char* text;
    double want;
  };
  const Case accepted[] = {
      {"1.5", 1.5},
      {" \t\n1.5", 1.5},
      {"+2.5", 2.5},
      {"-3", -3.0},
      {"1e3", 1000.0},
      {"0x1.8p1", 3.0},
      {"-0X10", -16.0},
      {"+0x.8p1", 1.0},
      {"inf", HUGE_VAL},
      {"-Infinity", -HUGE_VAL},
      {"-0", -0.0},
      {"1.7976931348623157e308", DBL_MAX},
      {"4.9406564584124654e-324", 0x1p-1074},
      {"2.225e-308", 2.225e-308},
      {"1e-310", 1e-310},
  };
  for (const Case& c : accepted) {
    const std::optional<double> v = ParseDouble(c.text);
    ASSERT_TRUE(v.has_value()) << c.text;
    EXPECT_EQ(std::bit_cast<uint64_t>(*v), std::bit_cast<uint64_t>(c.want))
        << c.text;
  }
  for (const char* text : {"nan", "-nan", "NaN(123)"}) {
    const std::optional<double> v = ParseDouble(text);
    ASSERT_TRUE(v.has_value()) << text;
    EXPECT_TRUE(std::isnan(*v)) << text;
  }
  for (const char* text :
       {"1e400", "-1e400", "1e-400", "1.5 ", "1.2.3", "", " ", "+", "+-1",
        "--1", "0x", "0xinf", "0x-1", "1e", "1,5", "abc"}) {
    EXPECT_FALSE(ParseDouble(text).has_value()) << '"' << text << '"';
  }
}

}  // namespace
}  // namespace aqua
