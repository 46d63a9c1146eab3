/// \file param_sweeps_test.cpp
/// \brief Parameterized property sweeps (TEST_P) across seeds and sizes:
/// every router invariant that must hold for *any* instance, checked on
/// families of generated instances.

#include <gtest/gtest.h>

#include <map>

#include "bench_data/synthetic.hpp"
#include "channel/greedy.hpp"
#include "channel/left_edge.hpp"
#include "channel_test_util.hpp"
#include "flow/flow.hpp"
#include "levelb/router.hpp"
#include "maze/lee.hpp"
#include "partition/partition.hpp"
#include "steiner/exact.hpp"
#include "steiner/rmst.hpp"
#include "steiner/rst.hpp"
#include "util/rng.hpp"

namespace ocr {
namespace {

// ---------------------------------------------------------------------
// Channel routers: any random channel the greedy router accepts must
// validate, use >= density tracks, and cover every pin.
// ---------------------------------------------------------------------

class ChannelSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelSeedSweep, GreedyRoutesAndValidates) {
  util::Rng rng(GetParam());
  const auto problem = channel::testing::random_problem(
      rng, static_cast<int>(rng.uniform_int(8, 60)),
      static_cast<int>(rng.uniform_int(2, 16)),
      static_cast<int>(rng.uniform_int(2, 6)));
  const auto route = channel::route_greedy(problem);
  ASSERT_TRUE(route.success) << route.failure_reason;
  const auto problems = channel::validate_route(problem, route);
  ASSERT_TRUE(problems.empty()) << problems.front();
  EXPECT_GE(route.num_tracks, channel::channel_density(problem));
}

TEST_P(ChannelSeedSweep, LeftEdgeValidatesWhenItSucceeds) {
  util::Rng rng(GetParam() ^ 0xABCDEF);
  const auto problem = channel::testing::random_problem(
      rng, static_cast<int>(rng.uniform_int(8, 60)),
      static_cast<int>(rng.uniform_int(2, 16)));
  const auto route = channel::route_left_edge(problem);
  if (!route.success) GTEST_SKIP() << "irreducible cycle";
  const auto problems = channel::validate_route(problem, route);
  ASSERT_TRUE(problems.empty()) << problems.front();
}

TEST_P(ChannelSeedSweep, GreedyWireLengthBounded) {
  // Sanity bound: total wiring cannot exceed the full channel area.
  util::Rng rng(GetParam() ^ 0x5EED);
  const auto problem = channel::testing::random_problem(rng, 40, 10);
  const auto route = channel::route_greedy(problem);
  ASSERT_TRUE(route.success);
  const long long columns =
      std::max(route.num_columns_used, problem.num_columns());
  const long long area = columns * (route.num_tracks + 2);
  EXPECT_LE(route.wire_length(), 2 * area);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelSeedSweep,
                         ::testing::Range<std::uint64_t>(1, 26));

// ---------------------------------------------------------------------
// Level-B router: for any instance, committed wiring of different nets
// never overlaps on a track, and every complete net's paths connect its
// snapped terminals.
// ---------------------------------------------------------------------

class LevelBSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LevelBSeedSweep, InvariantsHold) {
  util::Rng rng(GetParam());
  const geom::Coord size = rng.uniform_int(300, 900);
  auto grid =
      tig::TrackGrid::uniform(geom::Rect(0, 0, size, size), 9, 11);
  // Some obstacles.
  for (int k = 0; k < 4; ++k) {
    const geom::Coord x = rng.uniform_int(0, size - 80);
    const geom::Coord y = rng.uniform_int(0, size - 80);
    const geom::Rect r(x, y, x + rng.uniform_int(20, 70),
                       y + rng.uniform_int(20, 70));
    grid.block_region_h(r);
    if (rng.chance(0.5)) grid.block_region_v(r);
  }
  std::vector<levelb::BNet> nets;
  const int num_nets = static_cast<int>(rng.uniform_int(5, 30));
  for (int n = 0; n < num_nets; ++n) {
    levelb::BNet net{n, {}};
    const int degree = static_cast<int>(rng.uniform_int(2, 5));
    for (int t = 0; t < degree; ++t) {
      net.terminals.push_back(geom::Point{rng.uniform_int(0, size - 1),
                                          rng.uniform_int(0, size - 1)});
    }
    nets.push_back(std::move(net));
  }
  levelb::LevelBRouter router(grid);
  const auto result = router.route(nets);

  // 1. Cross-net track overlap is forbidden.
  struct TrackLeg {
    int net;
    geom::Interval span;
  };
  std::map<std::pair<int, int>, std::vector<TrackLeg>> by_track;
  for (const auto& net : result.nets) {
    for (const auto& path : net.paths) {
      for (std::size_t leg = 0; leg + 1 < path.points.size(); ++leg) {
        const auto& p = path.points[leg];
        const auto& q = path.points[leg + 1];
        const auto& t = path.tracks[leg];
        const bool horizontal =
            t.orient == geom::Orientation::kHorizontal;
        by_track[{horizontal ? 0 : 1, t.index}].push_back(TrackLeg{
            net.id,
            horizontal
                ? geom::Interval(std::min(p.x, q.x), std::max(p.x, q.x))
                : geom::Interval(std::min(p.y, q.y),
                                 std::max(p.y, q.y))});
      }
    }
  }
  for (const auto& [track, legs] : by_track) {
    for (std::size_t i = 0; i < legs.size(); ++i) {
      for (std::size_t j = i + 1; j < legs.size(); ++j) {
        if (legs[i].net == legs[j].net) continue;
        ASSERT_FALSE(legs[i].span.overlaps(legs[j].span))
            << "nets " << legs[i].net << "/" << legs[j].net
            << " overlap on a track";
      }
    }
  }

  // 2. Every path is rectilinear and rides real tracks.
  for (const auto& net : result.nets) {
    for (const auto& path : net.paths) {
      ASSERT_FALSE(path.empty());
      const auto problems = levelb::validate_path(
          grid, path, path.points.front(), path.points.back());
      ASSERT_TRUE(problems.empty()) << problems.front();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevelBSeedSweep,
                         ::testing::Range<std::uint64_t>(100, 118));

// ---------------------------------------------------------------------
// Steiner heuristics: MST >= modified-Prim RST >= exact, across sizes.
// ---------------------------------------------------------------------

class SteinerSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SteinerSizeSweep, LengthOrderingAcrossSizes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<geom::Point> pts;
    for (int i = 0; i < GetParam(); ++i) {
      pts.push_back(
          geom::Point{rng.uniform_int(0, 200), rng.uniform_int(0, 200)});
    }
    const auto mst = steiner::rectilinear_mst(pts);
    const auto rst = steiner::modified_prim_rst(pts);
    ASSERT_TRUE(steiner::validate_topology(rst).empty());
    EXPECT_LE(rst.length, mst.length);
    if (GetParam() <= steiner::kMaxExactTerminals) {
      EXPECT_GE(rst.length, steiner::exact_rsmt_length(pts));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SteinerSizeSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 10, 20, 50));

// ---------------------------------------------------------------------
// Flows: the headline area claim must hold across generated instances.
// ---------------------------------------------------------------------

class FlowSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowSeedSweep, OverCellNeverLargerThanBaseline) {
  const auto ml = bench_data::generate_macro_layout(
      bench_data::random_spec(GetParam(), 0.5));
  const auto layout = ml.assemble(
      std::vector<geom::Coord>(static_cast<std::size_t>(ml.num_channels()),
                               0));
  const auto partition = partition::partition_by_class(layout);
  const auto baseline = flow::run_two_layer_flow(ml);
  const auto proposed = flow::run_over_cell_flow(ml, partition);
  ASSERT_TRUE(baseline.success)
      << (baseline.problems.empty() ? "" : baseline.problems[0]);
  EXPECT_LE(proposed.layout_area, baseline.layout_area);
  EXPECT_GE(proposed.levelb_completion, 0.9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowSeedSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------
// MBFS vs Lee agreement across seeds (reachability oracle).
// ---------------------------------------------------------------------

class MbfsLeeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MbfsLeeSweep, ReachabilityAgreesWithLee) {
  util::Rng rng(GetParam());
  auto grid = tig::TrackGrid::uniform(geom::Rect(0, 0, 400, 400), 10, 10);
  for (int k = 0; k < 10; ++k) {
    const geom::Coord x = rng.uniform_int(0, 340);
    const geom::Coord y = rng.uniform_int(0, 340);
    const geom::Rect r(x, y, x + rng.uniform_int(10, 60),
                       y + rng.uniform_int(10, 60));
    grid.block_region_h(r);
    grid.block_region_v(r);
  }
  const levelb::PathFinder finder(grid);
  const auto ctx = levelb::make_cost_context(grid);
  for (int trial = 0; trial < 10; ++trial) {
    const auto a = grid.crossing(
        static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
        static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    const auto b = grid.crossing(
        static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
        static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    if (a == b) continue;
    const bool lee = maze::lee_connect(grid, a, b).found;
    const bool mbfs = finder.connect(a, b, ctx).found;
    EXPECT_EQ(lee, mbfs) << "a=" << a.x << "," << a.y << " b=" << b.x
                         << "," << b.y;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbfsLeeSweep,
                         ::testing::Range<std::uint64_t>(500, 512));

}  // namespace
}  // namespace ocr
