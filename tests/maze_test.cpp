#include <gtest/gtest.h>

#include "levelb/path_finder.hpp"
#include "maze/lee.hpp"
#include "util/rng.hpp"

namespace ocr::maze {
namespace {

using geom::Interval;
using geom::Point;
using geom::Rect;

tig::TrackGrid open_grid(geom::Coord size = 200) {
  return tig::TrackGrid::uniform(Rect(0, 0, size, size), 10, 10);
}

TEST(Lee, StraightPath) {
  const auto grid = open_grid();
  const auto r = lee_connect(grid, Point{5, 25}, Point{175, 25});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.path.length(), 170);
  EXPECT_EQ(r.path.corners(), 0);
}

TEST(Lee, LShapePath) {
  const auto grid = open_grid();
  const auto r = lee_connect(grid, Point{5, 5}, Point{175, 175});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.path.length(), 340);
  // Straight-continuation retrace keeps corners minimal among shortest.
  EXPECT_LE(r.path.corners(), 3);
}

TEST(Lee, IdenticalEndpoints) {
  const auto grid = open_grid();
  const auto r = lee_connect(grid, Point{5, 5}, Point{5, 5});
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.path.empty());
}

TEST(Lee, AvoidsObstacle) {
  auto grid = open_grid();
  const Rect wall(90, 0, 110, 160);
  grid.block_region_h(wall);
  grid.block_region_v(wall);
  const auto r = lee_connect(grid, Point{5, 45}, Point{195, 45});
  ASSERT_TRUE(r.found);
  geom::Coord max_y = 0;
  for (const auto& p : r.path.points) max_y = std::max(max_y, p.y);
  EXPECT_GT(max_y, 160);
  EXPECT_TRUE(
      levelb::validate_path(grid, r.path, Point{5, 45}, Point{195, 45})
          .empty());
}

TEST(Lee, ReportsUnreachable) {
  auto grid = open_grid();
  const Rect wall(90, 0, 110, 200);
  grid.block_region_h(wall);
  grid.block_region_v(wall);
  const auto r = lee_connect(grid, Point{5, 45}, Point{195, 45});
  EXPECT_FALSE(r.found);
}

TEST(LeeVsMbfs, AgreeOnReachabilityAndLength) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    auto grid = open_grid(300);
    const int blocks = static_cast<int>(rng.uniform_int(0, 12));
    for (int k = 0; k < blocks; ++k) {
      const geom::Coord x = rng.uniform_int(0, 260);
      const geom::Coord y = rng.uniform_int(0, 260);
      const Rect r(x, y, x + rng.uniform_int(5, 50),
                   y + rng.uniform_int(5, 50));
      grid.block_region_h(r);
      grid.block_region_v(r);
    }
    const Point a = grid.crossing(
        static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
        static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    const Point b = grid.crossing(
        static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
        static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    if (a == b) continue;
    const auto lee = lee_connect(grid, a, b);
    const levelb::PathFinder finder(grid);
    const auto ctx = levelb::make_cost_context(grid);
    const auto mbfs = finder.connect(a, b, ctx);
    // MBFS restricted windows never *create* reachability; with full-grid
    // fallback both should agree.
    EXPECT_EQ(lee.found, mbfs.found) << "trial " << trial;
    if (lee.found && mbfs.found) {
      // Lee is shortest-path; MBFS minimizes corners, so its length can
      // exceed Lee's but never undercut it.
      EXPECT_GE(mbfs.path.length(), lee.path.length()) << "trial " << trial;
      // And MBFS never uses more corners than Lee's retrace.
      EXPECT_LE(mbfs.corners, std::max(lee.path.corners(), 1))
          << "trial " << trial;
    }
  }
}

TEST(LeeVsMbfs, MbfsExaminesFewerVertices) {
  // The paper's efficiency claim: track-based search touches far fewer
  // vertices than cell-based wave propagation on long connections.
  const auto grid = open_grid(500);
  const Point a{5, 5};
  const Point b{495, 495};
  const auto lee = lee_connect(grid, a, b);
  const levelb::PathFinder finder(grid);
  const auto ctx = levelb::make_cost_context(grid);
  const auto mbfs = finder.connect(a, b, ctx);
  ASSERT_TRUE(lee.found);
  ASSERT_TRUE(mbfs.found);
  EXPECT_LT(mbfs.stats.vertices_examined, lee.cells_expanded / 4);
}

}  // namespace
}  // namespace ocr::maze
