/// \file window_sweep_test.cpp
/// \brief TEST_P sweeps over the MBFS search-window margin (§3.1: "the
/// solution space for each MBFS is defined by the locations of the two
/// net terminals within a rectangular region").

#include <gtest/gtest.h>

#include "levelb/path_finder.hpp"
#include "maze/lee.hpp"
#include "util/rng.hpp"

namespace ocr::levelb {
namespace {

using geom::Point;
using geom::Rect;

class WindowMarginSweep : public ::testing::TestWithParam<int> {};

/// Whatever the initial margin, the full-grid fallback guarantees the
/// same reachability verdict as an exhaustive search.
TEST_P(WindowMarginSweep, ReachabilityIndependentOfMargin) {
  util::Rng rng(808);
  auto grid = tig::TrackGrid::uniform(Rect(0, 0, 400, 400), 10, 10);
  for (int k = 0; k < 10; ++k) {
    const geom::Coord x = rng.uniform_int(0, 340);
    const geom::Coord y = rng.uniform_int(0, 340);
    const Rect r(x, y, x + rng.uniform_int(10, 60),
                 y + rng.uniform_int(10, 60));
    grid.block_region_h(r);
    grid.block_region_v(r);
  }
  PathFinder::Options options;
  options.window_margin = GetParam();
  const PathFinder finder(grid, options);
  const auto ctx = make_cost_context(grid);
  for (int trial = 0; trial < 15; ++trial) {
    const Point a = grid.crossing(
        static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
        static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    const Point b = grid.crossing(
        static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
        static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    if (a == b) continue;
    const auto mbfs = finder.connect(a, b, ctx);
    const auto lee = maze::lee_connect(grid, a, b);
    EXPECT_EQ(mbfs.found, lee.found)
        << "margin " << GetParam() << " trial " << trial;
    if (mbfs.found) {
      const auto problems = validate_path(grid, mbfs.path, a, b);
      EXPECT_TRUE(problems.empty()) << problems.front();
    }
  }
}

/// Wider initial windows can only examine more vertices, never fewer
/// completions.
TEST_P(WindowMarginSweep, PathQualityStableOnOpenGrid) {
  const auto grid = tig::TrackGrid::uniform(Rect(0, 0, 500, 500), 10, 10);
  PathFinder::Options options;
  options.window_margin = GetParam();
  const PathFinder finder(grid, options);
  const auto ctx = make_cost_context(grid);
  util::Rng rng(909);
  for (int trial = 0; trial < 15; ++trial) {
    const Point a = grid.crossing(
        static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
        static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    const Point b = grid.crossing(
        static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
        static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    if (a == b) continue;
    const auto r = finder.connect(a, b, ctx);
    ASSERT_TRUE(r.found);
    // Open grid: always Manhattan length, at most one corner.
    EXPECT_EQ(r.path.length(), geom::manhattan(a, b));
    EXPECT_LE(r.corners, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Margins, WindowMarginSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 10, 50));

}  // namespace
}  // namespace ocr::levelb
