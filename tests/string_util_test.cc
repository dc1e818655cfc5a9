#include "common/string_util.h"

#include <gtest/gtest.h>

namespace hpa {
namespace {

TEST(SplitTest, BasicSplit) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, NoSeparatorYieldsWhole) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(SplitTest, EmptyInputYieldsOneEmpty) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("hello"), "hello");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" a b "), "a b");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-flag", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("", "a"));
}

TEST(ToLowerAsciiTest, LowersOnlyAscii) {
  EXPECT_EQ(ToLowerAscii("HeLLo123"), "hello123");
  EXPECT_EQ(ToLowerAscii(""), "");
}

TEST(HumanBytesTest, PicksUnits) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
  EXPECT_EQ(HumanBytes(65866956), "62.8 MiB");  // the Mix corpus size
  EXPECT_EQ(HumanBytes(0), "0 B");
}

TEST(HumanDurationTest, PicksUnits) {
  EXPECT_EQ(HumanDuration(3.3), "3.30 s");
  EXPECT_EQ(HumanDuration(0.0402), "40.20 ms");
  EXPECT_EQ(HumanDuration(2.5e-6), "2.50 us");
  EXPECT_EQ(HumanDuration(5e-9), "5 ns");
}

TEST(WithThousandsTest, InsertsSeparators) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(23432), "23,432");     // Mix documents
  EXPECT_EQ(WithThousands(101483), "101,483");   // NSF documents
  EXPECT_EQ(WithThousands(1234567890), "1,234,567,890");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(ParseInt64Test, ValidInputs) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-17", &v));
  EXPECT_EQ(v, -17);
  EXPECT_TRUE(ParseInt64("  8 ", &v));
  EXPECT_EQ(v, 8);
}

TEST(ParseInt64Test, InvalidInputs) {
  int64_t v = 0;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("abc", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("99999999999999999999999", &v));  // overflow
}

TEST(ParseDoubleTest, ValidInputs) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
}

TEST(ParseDoubleTest, InvalidInputs) {
  double v = 0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("x", &v));
  EXPECT_FALSE(ParseDouble("1.5garbage", &v));
}

// Growth adds an eighth of the new size instead of doubling, and the
// capacity never shrinks.
TEST(ResizeBufferTest, GrowsByAnEighth) {
  std::string buffer;
  ResizeBuffer(buffer, 1000);
  EXPECT_EQ(buffer.size(), 1000u);
  EXPECT_GE(buffer.capacity(), 1000u + 1000u / 8);
  EXPECT_LT(buffer.capacity(), 1200u);
  ResizeBuffer(buffer, 800);
  EXPECT_EQ(buffer.size(), 800u);
  EXPECT_GE(buffer.capacity(), 1000u);
  ResizeBuffer(buffer, 1200);
  EXPECT_EQ(buffer.size(), 1200u);
  EXPECT_GE(buffer.capacity(), 1200u + 1200u / 8);
  EXPECT_LT(buffer.capacity(), 2000u);
}

}  // namespace
}  // namespace hpa
