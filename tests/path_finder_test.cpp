#include <gtest/gtest.h>

#include "levelb/figure1.hpp"
#include "levelb/path_finder.hpp"
#include "util/rng.hpp"

namespace ocr::levelb {
namespace {

using geom::Interval;
using geom::Point;
using geom::Rect;

tig::TrackGrid open_grid() {
  // 8x8 uniform grid, tracks at 5, 15, ..., 75.
  return tig::TrackGrid::uniform(Rect(0, 0, 80, 80), 10, 10);
}

CostContext plain_ctx(const tig::TrackGrid& grid) {
  return make_cost_context(grid);
}

TEST(PathFinder, StraightHorizontal) {
  const auto grid = open_grid();
  const PathFinder finder(grid);
  const auto r = finder.connect(Point{5, 25}, Point{75, 25},
                                plain_ctx(grid));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.corners, 0);
  EXPECT_EQ(r.path.length(), 70);
  EXPECT_EQ(r.path.points.size(), 2u);
}

TEST(PathFinder, StraightVertical) {
  const auto grid = open_grid();
  const PathFinder finder(grid);
  const auto r = finder.connect(Point{35, 5}, Point{35, 75},
                                plain_ctx(grid));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.corners, 0);
  EXPECT_EQ(r.path.length(), 70);
}

TEST(PathFinder, LShapeOneCorner) {
  const auto grid = open_grid();
  const PathFinder finder(grid);
  const auto r = finder.connect(Point{5, 5}, Point{75, 75},
                                plain_ctx(grid));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.corners, 1);
  EXPECT_EQ(r.path.length(), 140);  // Manhattan-optimal
  EXPECT_TRUE(validate_path(grid, r.path, Point{5, 5}, Point{75, 75})
                  .empty());
}

TEST(PathFinder, IdenticalEndpoints) {
  const auto grid = open_grid();
  const PathFinder finder(grid);
  const auto r = finder.connect(Point{5, 5}, Point{5, 5}, plain_ctx(grid));
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.path.empty());
}

TEST(PathFinder, DetoursAroundBlockedStraight) {
  auto grid = open_grid();
  // Block the direct horizontal track between the terminals.
  grid.block_h(2, Interval(30, 50));  // y=25
  const PathFinder finder(grid);
  const auto r = finder.connect(Point{5, 25}, Point{75, 25},
                                plain_ctx(grid));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.corners, 2);  // up/down and back
  EXPECT_GT(r.path.length(), 70);
  EXPECT_TRUE(validate_path(grid, r.path, Point{5, 25}, Point{75, 25})
                  .empty());
}

TEST(PathFinder, PathAvoidsObstacleRegion) {
  auto grid = open_grid();
  // A solid block in the middle of the die on both layers.
  const Rect obstacle(25, 25, 55, 55);
  grid.block_region_h(obstacle);
  grid.block_region_v(obstacle);
  const PathFinder finder(grid);
  const auto r = finder.connect(Point{5, 45}, Point{75, 45},
                                plain_ctx(grid));
  ASSERT_TRUE(r.found);
  // No leg may cross the obstacle interior.
  for (std::size_t leg = 0; leg + 1 < r.path.points.size(); ++leg) {
    const Point& p = r.path.points[leg];
    const Point& q = r.path.points[leg + 1];
    const Rect leg_box = Rect::from_corners(p, q);
    EXPECT_FALSE(leg_box.interior_overlaps(obstacle))
        << "leg " << leg << " crosses the obstacle";
    // Also endpoints: crossings inside the obstacle would be blocked.
    EXPECT_FALSE(obstacle.contains(p) && obstacle.contains(q) &&
                 p != q);
  }
}

TEST(PathFinder, ReportsUnreachable) {
  auto grid = open_grid();
  // Wall off the right half on both layers.
  const Rect wall(38, 0, 42, 80);
  grid.block_region_h(wall);
  for (int j = 0; j < grid.num_v(); ++j) {
    if (grid.v_x(j) >= 38 && grid.v_x(j) <= 42) {
      grid.block_v(j, Interval(0, 80));
    }
  }
  // The wall blocks every horizontal track on x in [38,42]; no vertical
  // track can bypass x=38..42 because wires must ride tracks.
  const PathFinder finder(grid);
  const auto r = finder.connect(Point{5, 25}, Point{75, 25},
                                plain_ctx(grid));
  EXPECT_FALSE(r.found);
}

TEST(PathFinder, WindowGrowsWhenNeeded) {
  auto grid = open_grid();
  // Terminals on the same row; block a tall region forcing a detour far
  // outside the initial window.
  for (int i = 0; i < grid.num_h(); ++i) {
    if (grid.h_y(i) <= 55) grid.block_h(i, Interval(30, 50));
  }
  for (int j = 0; j < grid.num_v(); ++j) {
    if (grid.v_x(j) >= 30 && grid.v_x(j) <= 50) {
      grid.block_v(j, Interval(0, 55));
    }
  }
  PathFinder::Options opts;
  opts.window_margin = 1;
  const PathFinder finder(grid, opts);
  const auto r = finder.connect(Point{5, 5}, Point{75, 5}, plain_ctx(grid));
  ASSERT_TRUE(r.found);
  EXPECT_GT(r.stats.window_growths, 0);
  EXPECT_TRUE(validate_path(grid, r.path, Point{5, 5}, Point{75, 5})
                  .empty());
}

TEST(PathFinder, MinimumCornersPreferredOverLength) {
  auto grid = open_grid();
  // Make the 1-corner L paths impossible; a 2-corner detour remains. The
  // finder must never return a 3+-corner path even if shorter in length.
  grid.block_h(0, Interval(70, 80));   // corner at (75, 5)
  grid.block_v(0, Interval(70, 80));   // corner at (5, 75)
  const PathFinder finder(grid);
  const auto r = finder.connect(Point{5, 5}, Point{75, 75},
                                plain_ctx(grid));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.corners, 2);
  EXPECT_EQ(r.path.length(), 140);  // still Manhattan-optimal via Z-shape
}

// ---- Figure 1 / Figure 2 reproduction --------------------------------

TEST(Figure1, ReproducesPaperOutcome) {
  const Figure1Instance fig = make_figure1_instance();
  PathFinder::Options opts;
  opts.keep_trees = true;
  const PathFinder finder(fig.grid, opts);
  const auto ctx = make_cost_context(fig.grid);
  const auto r = finder.connect(fig.b1, fig.b2, ctx);
  ASSERT_TRUE(r.found);
  // The paper: the (v2, h4, v6) path with a single corner wins.
  EXPECT_EQ(r.corners, 1);
  ASSERT_EQ(r.path.points.size(), 3u);
  EXPECT_EQ(r.path.points[0], fig.b1);
  EXPECT_EQ(r.path.points[1], (Point{20, 40}));  // corner on (v2, h4)
  EXPECT_EQ(r.path.points[2], fig.b2);
}

TEST(Figure1, FindsAllThreeCandidatePaths) {
  // Paper: "three possible paths can be identified — one path (v2,h4,v6)
  // from the MBFS that started from vertex v2, and two paths
  // (h2,v3,h4,v6) and (h2,v5,h4,v6) from the MBFS that started from h2."
  const Figure1Instance fig = make_figure1_instance();
  const PathFinder finder(fig.grid);
  const auto ctx = make_cost_context(fig.grid);
  const auto r = finder.connect(fig.b1, fig.b2, ctx);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.stats.candidates, 3);
}

TEST(Figure1, TreeFromV2FindsOnePath) {
  const Figure1Instance fig = make_figure1_instance();
  PathFinder::Options opts;
  opts.keep_trees = true;
  const PathFinder finder(fig.grid, opts);
  const auto ctx = make_cost_context(fig.grid);
  const auto r = finder.connect(fig.b1, fig.b2, ctx);
  ASSERT_TRUE(r.found);
  // Tree rooted at v2 (vertical pass): root is v2.
  ASSERT_FALSE(r.tree_v.nodes.empty());
  EXPECT_EQ(r.tree_v.nodes[0].track.orient, geom::Orientation::kVertical);
  EXPECT_EQ(r.tree_v.nodes[0].track.index, 1);  // v2 is index 1
}

TEST(Figure1, DirectH2V6CompletionIsBlocked) {
  // Net C's wire on v6 must prevent the (h2, v6) one-corner path.
  const Figure1Instance fig = make_figure1_instance();
  EXPECT_FALSE(fig.grid.v_is_free(5, Interval(20, 40)));
  // And h4 is blocked between v1 and v2 (net A).
  EXPECT_FALSE(fig.grid.h_is_free(3, Interval(10, 20)));
  // Obstacle O1 blocks v4 at h2's y.
  EXPECT_FALSE(fig.grid.v_is_free(3, Interval(20, 20)));
}

TEST(Figure1, TreePrintingMentionsTracks) {
  const Figure1Instance fig = make_figure1_instance();
  PathFinder::Options opts;
  opts.keep_trees = true;
  const PathFinder finder(fig.grid, opts);
  const auto ctx = make_cost_context(fig.grid);
  const auto r = finder.connect(fig.b1, fig.b2, ctx);
  const std::string tree = r.tree_h.to_string();
  EXPECT_NE(tree.find("h2"), std::string::npos);
  EXPECT_NE(tree.find("v3"), std::string::npos);
  EXPECT_NE(tree.find("v5"), std::string::npos);
}

// ---- property tests ----------------------------------------------------

TEST(PathFinderProperty, RandomObstaclesValidPaths) {
  util::Rng rng(2025);
  for (int trial = 0; trial < 40; ++trial) {
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, 200, 200), 10, 10);
    // Scatter obstacles.
    const int blocks = static_cast<int>(rng.uniform_int(0, 15));
    for (int k = 0; k < blocks; ++k) {
      const geom::Coord x = rng.uniform_int(0, 180);
      const geom::Coord y = rng.uniform_int(0, 180);
      const Rect r(x, y, x + rng.uniform_int(5, 40),
                   y + rng.uniform_int(5, 40));
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
    const PathFinder finder(grid);
    const auto ctx = make_cost_context(grid);
    const auto r = finder.connect(a, b, ctx);
    if (!r.found) continue;  // walled off is legitimate
    const auto problems = validate_path(grid, r.path, a, b);
    ASSERT_TRUE(problems.empty())
        << "trial " << trial << ": " << problems.front();
    // Every leg must be free in the grid.
    for (std::size_t leg = 0; leg + 1 < r.path.points.size(); ++leg) {
      const Point& p = r.path.points[leg];
      const Point& q = r.path.points[leg + 1];
      const auto& t = r.path.tracks[leg];
      if (t.orient == geom::Orientation::kHorizontal) {
        ASSERT_TRUE(grid.h_is_free(
            t.index, Interval(std::min(p.x, q.x), std::max(p.x, q.x))))
            << "trial " << trial;
      } else {
        ASSERT_TRUE(grid.v_is_free(
            t.index, Interval(std::min(p.y, q.y), std::max(p.y, q.y))))
            << "trial " << trial;
      }
    }
  }
}

TEST(PathFinderProperty, LengthAtLeastManhattan) {
  util::Rng rng(303);
  const auto grid = tig::TrackGrid::uniform(Rect(0, 0, 300, 300), 10, 10);
  const PathFinder finder(grid);
  const auto ctx = make_cost_context(grid);
  for (int trial = 0; trial < 50; ++trial) {
    const Point a = grid.crossing(
        static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
        static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    const Point b = grid.crossing(
        static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
        static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    if (a == b) continue;
    const auto r = finder.connect(a, b, ctx);
    ASSERT_TRUE(r.found);
    // On an empty grid the minimum-corner path is Manhattan-optimal.
    EXPECT_EQ(r.path.length(), geom::manhattan(a, b)) << "trial " << trial;
    EXPECT_LE(r.corners, 1);
  }
}

}  // namespace
}  // namespace ocr::levelb
