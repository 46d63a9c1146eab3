#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "bench_data/synthetic.hpp"
#include "io/bench_rows.hpp"
#include "io/layout_io.hpp"

namespace ocr::io {
namespace {

using floorplan::MacroCell;
using floorplan::MacroLayout;
using floorplan::MacroNet;
using floorplan::MacroObstacle;
using floorplan::MacroPin;

MacroLayout tiny() {
  MacroLayout ml("tiny", 400);
  ml.add_row(100);
  ml.add_cell(MacroCell{"a", 120, 90, 0, 40});
  ml.add_cell(MacroCell{"b", 150, 100, 0, 220});
  const int n0 = ml.add_net(MacroNet{"n0", netlist::NetClass::kSignal});
  ml.add_pin(MacroPin{n0, 0, true, 30});
  ml.add_pin(MacroPin{n0, 1, true, 60});
  const int n1 = ml.add_net(MacroNet{"clk", netlist::NetClass::kClock});
  ml.add_pin(MacroPin{n1, 0, false, 60});
  ml.add_pin(MacroPin{n1, -1, false, 200});
  ml.add_obstacle(MacroObstacle{1, /*x_lo=*/10, /*x_hi=*/140,
                                /*y_lo=*/40, /*y_hi=*/60, true, false,
                                "strap"});
  return ml;
}

TEST(LayoutIo, RoundTripTiny) {
  const MacroLayout original = tiny();
  const std::string text = write_layout_text(original);
  const ParseResult parsed = read_layout_text(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const MacroLayout& loaded = *parsed.layout;
  EXPECT_EQ(loaded.name(), original.name());
  EXPECT_EQ(loaded.die_width(), original.die_width());
  EXPECT_EQ(loaded.num_rows(), original.num_rows());
  ASSERT_EQ(loaded.cells().size(), original.cells().size());
  for (std::size_t i = 0; i < loaded.cells().size(); ++i) {
    EXPECT_EQ(loaded.cells()[i].name, original.cells()[i].name);
    EXPECT_EQ(loaded.cells()[i].x, original.cells()[i].x);
    EXPECT_EQ(loaded.cells()[i].width, original.cells()[i].width);
  }
  ASSERT_EQ(loaded.pins().size(), original.pins().size());
  for (std::size_t i = 0; i < loaded.pins().size(); ++i) {
    EXPECT_EQ(loaded.pins()[i].net, original.pins()[i].net);
    EXPECT_EQ(loaded.pins()[i].cell, original.pins()[i].cell);
    EXPECT_EQ(loaded.pins()[i].north, original.pins()[i].north);
    EXPECT_EQ(loaded.pins()[i].x, original.pins()[i].x);
  }
  ASSERT_EQ(loaded.obstacles().size(), 1u);
  EXPECT_EQ(loaded.obstacles()[0].reason, "strap");
  EXPECT_TRUE(loaded.obstacles()[0].blocks_metal3);
  EXPECT_FALSE(loaded.obstacles()[0].blocks_metal4);
}

TEST(LayoutIo, RoundTripGeneratedInstance) {
  const auto original = bench_data::generate_macro_layout(
      bench_data::random_spec(77, 0.5));
  const ParseResult parsed =
      read_layout_text(write_layout_text(original));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.layout->cells().size(), original.cells().size());
  EXPECT_EQ(parsed.layout->nets().size(), original.nets().size());
  EXPECT_EQ(parsed.layout->pins().size(), original.pins().size());
  EXPECT_EQ(parsed.layout->obstacles().size(),
            original.obstacles().size());
  // Second serialization is byte-identical (canonical form).
  EXPECT_EQ(write_layout_text(*parsed.layout), write_layout_text(original));
}

TEST(LayoutIo, CommentsAndBlanksIgnored) {
  const std::string text =
      "# header comment\n"
      "\n"
      "layout t 100   # trailing comment\n"
      "row 50\n"
      "cell a 0 10 40 50\n"
      "net n signal\n"
      "pin 0 0 N 5\n"
      "pin 0 -1 S 90\n";
  const auto parsed = read_layout_text(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.layout->pins().size(), 2u);
}

TEST(LayoutIo, ErrorsNameTheLine) {
  const std::string text =
      "layout t 100\n"
      "row 50\n"
      "cell a 0 10 40 999\n";  // cell taller than its row
  const auto parsed = read_layout_text(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("line 3"), std::string::npos);
}

TEST(LayoutIo, RejectsUnknownDirective) {
  const auto parsed = read_layout_text("layout t 100\nfrobnicate 1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("frobnicate"), std::string::npos);
}

TEST(LayoutIo, RejectsPinBeforeNet) {
  const auto parsed =
      read_layout_text("layout t 100\nrow 50\ncell a 0 0 40 40\n"
                       "pin 0 0 N 5\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("undeclared net"), std::string::npos);
}

TEST(LayoutIo, RejectsMissingLayoutHeader) {
  const auto parsed = read_layout_text("row 50\n");
  ASSERT_FALSE(parsed.ok());
}

TEST(LayoutIo, RejectsInvalidLayout) {
  // Net with a single pin fails MacroLayout::validate at the end.
  const std::string text =
      "layout t 100\nrow 50\ncell a 0 0 40 40\nnet n signal\n"
      "pin 0 0 N 5\n";
  const auto parsed = read_layout_text(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("invalid"), std::string::npos);
}

TEST(LayoutIo, FileRoundTrip) {
  const MacroLayout original = tiny();
  const std::string path = ::testing::TempDir() + "/ocr_io_test.oclay";
  ASSERT_TRUE(save_layout(original, path));
  const auto parsed = load_layout(path);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(write_layout_text(*parsed.layout), write_layout_text(original));
  std::remove(path.c_str());
}

TEST(LayoutIo, LoadMissingFileFails) {
  const auto parsed = load_layout("/nonexistent/file.oclay");
  EXPECT_FALSE(parsed.ok());
  EXPECT_FALSE(parsed.error.empty());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

util::TraceEvent sweep_row(const char* label, const char* instance,
                           double per_net_us) {
  util::TraceEvent ev("net_sweep");
  ev.add("label", label)
      .add("instance", instance)
      .add("mode", "serial")
      .add("threads", 1)
      .add("per_net_us", per_net_us);
  return ev;
}

TEST(BenchRows, MergeKeepsOldRowsAndReplacesOnlyItsOwnKey) {
  const std::string path = ::testing::TempDir() + "bench_rows_merge.json";
  // A pretty-printed file as committed: one unlabelled row, one labelled.
  const std::string old_a =
      "{\n  \"kind\": \"scaling\",\n  \"nets\": 25,\n  \"completion\": 1\n }";
  const std::string old_b =
      "{\n  \"kind\": \"net_sweep\",\n  \"label\": \"before\",\n"
      "  \"instance\": \"sparse-100k/4000\",\n  \"mode\": \"serial\",\n"
      "  \"threads\": 1,\n  \"per_net_us\": 54.0\n }";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "[\n " << old_a << ",\n " << old_b << "\n]\n";
  }
  ASSERT_TRUE(merge_bench_rows(path, {sweep_row("after", "sparse-100k/4000",
                                                20.5)})
                  .ok());
  std::string text = read_file(path);
  // Both old rows survive byte for byte; the new label is a new key.
  EXPECT_NE(text.find(old_a), std::string::npos) << text;
  EXPECT_NE(text.find(old_b), std::string::npos) << text;
  EXPECT_NE(text.find("\"per_net_us\":20.5"), std::string::npos) << text;

  // Re-capturing the same label replaces that row and nothing else.
  ASSERT_TRUE(merge_bench_rows(path, {sweep_row("after", "sparse-100k/4000",
                                                19.0),
                                      sweep_row("after", "sparse-100k/32000",
                                                22.0)})
                  .ok());
  text = read_file(path);
  EXPECT_NE(text.find(old_a), std::string::npos);
  EXPECT_NE(text.find(old_b), std::string::npos);
  EXPECT_EQ(text.find("\"per_net_us\":20.5"), std::string::npos) << text;
  EXPECT_NE(text.find("\"per_net_us\":19"), std::string::npos) << text;
  EXPECT_NE(text.find("sparse-100k/32000"), std::string::npos) << text;
  EXPECT_LT(text.find(old_b), text.find("\"per_net_us\":19"));
  std::remove(path.c_str());
}

TEST(BenchRows, MissingFileIsCreatedAndBrokenFileLeftUntouched) {
  const std::string fresh = ::testing::TempDir() + "bench_rows_fresh.json";
  std::remove(fresh.c_str());
  ASSERT_TRUE(
      merge_bench_rows(fresh, {sweep_row("l", "sparse-100k/4000", 1.0)})
          .ok());
  EXPECT_EQ(read_file(fresh).rfind("[\n {\"kind\":\"net_sweep\"", 0), 0u);
  std::remove(fresh.c_str());

  const std::string broken = ::testing::TempDir() + "bench_rows_broken.json";
  for (const char* bad : {"not json", "[{\"kind\": \"x\"", "[{\"a\": [1]}]",
                          "[{\"kind\": \"x\"}] trailing"}) {
    {
      std::ofstream out(broken, std::ios::binary | std::ios::trunc);
      out << bad;
    }
    const util::Status s =
        merge_bench_rows(broken, {sweep_row("l", "i", 1.0)});
    EXPECT_FALSE(s.ok()) << bad;
    EXPECT_EQ(read_file(broken), bad);
  }
  std::remove(broken.c_str());
}

}  // namespace
}  // namespace ocr::io
