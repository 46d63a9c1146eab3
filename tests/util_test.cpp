#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

namespace ocr::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const auto first = a.next_u64();
  a.next_u64();
  a.reseed(7);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, IndexWithinBounds) {
  Rng rng(13);
  for (int i = 0; i < 200; ++i) EXPECT_LT(rng.index(17), 17u);
}

TEST(Str, Format) {
  EXPECT_EQ(format("net %d at %s", 3, "c7"), "net 3 at c7");
  EXPECT_EQ(format("%s", ""), "");
}

TEST(Str, SplitAndJoin) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, "-"), "a-b--c");
}

TEST(Str, Trim) {
  EXPECT_EQ(trim("  x y \n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(Str, StartsWith) {
  EXPECT_TRUE(starts_with("metal3", "metal"));
  EXPECT_FALSE(starts_with("m", "metal"));
}

TEST(Str, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1874880), "1,874,880");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

TEST(Str, ParseIntAcceptsOnlyAWholeInRangeInteger) {
  const StatusOr<long long> ok = parse_int("42", 0, 100);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(*parse_int("-7", -10, 10), -7);
  EXPECT_EQ(*parse_int("0", 0, 0), 0);
  // Malformed: empty, letters, trailing junk, spaces, '+', decimals.
  for (const char* bad : {"", "abc", "4x", " 4", "4 ", "+4", "4.0", "0x10"}) {
    const StatusOr<long long> r = parse_int(bad, -100, 100);
    ASSERT_FALSE(r.ok()) << "'" << bad << "'";
    EXPECT_EQ(r.status().kind(), StatusKind::kInvalidArgument);
    EXPECT_NE(r.status().message().find("not an integer"), std::string::npos)
        << r.status().message();
  }
  // Out of range: past the bounds, and past long long itself.
  for (const char* far : {"-1", "101", "99999999999999999999"}) {
    const StatusOr<long long> r = parse_int(far, 0, 100);
    ASSERT_FALSE(r.ok()) << far;
    EXPECT_NE(r.status().message().find("out of range [0, 100]"),
              std::string::npos)
        << r.status().message();
  }
}

TEST(Str, ParseDoubleRejectsMalformedNanAndOutOfRange) {
  EXPECT_DOUBLE_EQ(*parse_double("8.5", 0.0, 10.0), 8.5);
  EXPECT_DOUBLE_EQ(*parse_double("1e3", 0.0, 1e9), 1000.0);
  EXPECT_DOUBLE_EQ(*parse_double("0", 0.0, 1.0), 0.0);
  for (const char* bad : {"", "x", "8.5x", " 1"}) {
    EXPECT_FALSE(parse_double(bad, 0.0, 10.0).ok()) << "'" << bad << "'";
  }
  for (const char* far : {"-0.5", "10.5", "nan", "inf", "1e999"}) {
    const StatusOr<double> r = parse_double(far, 0.0, 10.0);
    ASSERT_FALSE(r.ok()) << far;
    EXPECT_NE(r.status().message().find("out of range"), std::string::npos)
        << far << ": " << r.status().message();
  }
}

TEST(Table, RendersAlignedColumns) {
  TextTable t;
  t.set_header({"Example", "Area"});
  t.add_row({"ami33", "1,874,880"});
  t.add_row({"ex3", "3,061,635"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| Example |"), std::string::npos);
  EXPECT_NE(out.find("| ami33   |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, SeparatorInsertsRule) {
  TextTable t;
  t.set_header({"A"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string out = t.render();
  // header rule + top + bottom + separator = 4 rules
  std::size_t rules = 0;
  for (std::size_t pos = out.find("+--"); pos != std::string::npos;
       pos = out.find("+--", pos + 1)) {
    ++rules;
  }
  EXPECT_EQ(rules, 4u);
}

}  // namespace
}  // namespace ocr::util
