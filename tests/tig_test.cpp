#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <thread>
#include <vector>

#include "tig/graph.hpp"
#include "tig/track_grid.hpp"
#include "util/rng.hpp"

namespace ocr::tig {
namespace {

using geom::Interval;
using geom::Point;
using geom::Rect;

TrackGrid small_grid() {
  return TrackGrid({10, 20, 30}, {5, 15, 25, 35}, Rect(0, 0, 40, 40));
}

TEST(TrackGrid, ConstructionAndAccess) {
  const TrackGrid g = small_grid();
  EXPECT_EQ(g.num_h(), 3);
  EXPECT_EQ(g.num_v(), 4);
  EXPECT_EQ(g.h_y(1), 20);
  EXPECT_EQ(g.v_x(3), 35);
  EXPECT_EQ(g.crossing(1, 2), (Point{25, 20}));
}

TEST(TrackGrid, UniformConstruction) {
  const TrackGrid g = TrackGrid::uniform(Rect(0, 0, 100, 60), 10, 10);
  EXPECT_EQ(g.num_h(), 6);   // y = 5, 15, ..., 55
  EXPECT_EQ(g.num_v(), 10);  // x = 5, 15, ..., 95
  EXPECT_EQ(g.h_y(0), 5);
  EXPECT_EQ(g.v_x(9), 95);
}

TEST(TrackGrid, NonUniformSpacingSupported) {
  // The paper allows "different spacing" between tracks.
  const TrackGrid g({5, 7, 30}, {1, 100}, Rect(0, 0, 120, 40));
  EXPECT_EQ(g.nearest_h(6), 0);   // tie goes to the lower track
  EXPECT_EQ(g.nearest_h(17), 1);  // |17-7| = 10 < |30-17| = 13
  EXPECT_EQ(g.nearest_h(20), 2);  // |20-30| = 10 < |20-7| = 13
  EXPECT_EQ(g.nearest_v(49), 0);
  EXPECT_EQ(g.nearest_v(52), 1);
}

TEST(TrackGrid, NearestClamping) {
  const TrackGrid g = small_grid();
  EXPECT_EQ(g.nearest_h(-100), 0);
  EXPECT_EQ(g.nearest_h(999), 2);
  EXPECT_EQ(g.snap(Point{0, 0}), (Point{5, 10}));
  EXPECT_EQ(g.snap(Point{36, 26}), (Point{35, 30}));
}

TEST(TrackGrid, BlockAndQuery) {
  TrackGrid g = small_grid();
  EXPECT_TRUE(g.h_is_free(0, Interval(0, 40)));
  g.block_h(0, Interval(10, 20));
  EXPECT_FALSE(g.h_is_free(0, Interval(0, 40)));
  EXPECT_TRUE(g.h_is_free(0, Interval(21, 40)));
  EXPECT_FALSE(g.crossing_free(0, 1));  // v1 at x=15 inside [10,20]
  EXPECT_TRUE(g.crossing_free(0, 0));   // x=5 free
  g.unblock_h(0, Interval(10, 20));
  EXPECT_TRUE(g.h_is_free(0, Interval(0, 40)));
}

TEST(TrackGrid, FreeSegments) {
  TrackGrid g = small_grid();
  g.block_h(1, Interval(14, 16));
  const auto left = g.h_free_segment(1, 5);
  ASSERT_TRUE(left.has_value());
  EXPECT_EQ(*left, Interval(0, 13));
  const auto right = g.h_free_segment(1, 25);
  ASSERT_TRUE(right.has_value());
  EXPECT_EQ(*right, Interval(17, 40));
  EXPECT_FALSE(g.h_free_segment(1, 15).has_value());
}

TEST(TrackGrid, RegionBlocking) {
  TrackGrid g = small_grid();
  g.block_region_h(Rect(10, 15, 30, 25));  // covers h track at y=20 only
  EXPECT_FALSE(g.h_is_free(1, Interval(10, 30)));
  EXPECT_TRUE(g.h_is_free(0, Interval(0, 40)));
  EXPECT_TRUE(g.h_is_free(2, Interval(0, 40)));

  g.block_region_v(Rect(10, 15, 30, 25));  // covers v tracks at x=15, 25
  EXPECT_FALSE(g.v_is_free(1, Interval(15, 25)));
  EXPECT_FALSE(g.v_is_free(2, Interval(15, 25)));
  EXPECT_TRUE(g.v_is_free(0, Interval(0, 40)));
  EXPECT_TRUE(g.v_is_free(3, Interval(0, 40)));
}

TEST(TrackGrid, DistanceToBlocked) {
  TrackGrid g = small_grid();
  EXPECT_FALSE(g.h_distance_to_blocked(0, 20).has_value());
  g.block_h(0, Interval(30, 35));
  const auto d = g.h_distance_to_blocked(0, 20);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 10);
  EXPECT_EQ(*g.h_distance_to_blocked(0, 32), 0);
}

TEST(TrackGrid, BlockedFraction) {
  TrackGrid g = small_grid();
  EXPECT_DOUBLE_EQ(g.h_blocked_fraction(0, Interval(0, 40)), 0.0);
  g.block_h(0, Interval(0, 20));
  EXPECT_DOUBLE_EQ(g.h_blocked_fraction(0, Interval(0, 40)), 0.5);
  EXPECT_DOUBLE_EQ(g.h_blocked_fraction(0, Interval(0, 20)), 1.0);
}

/// Shadow occupancy of one track over the universe [0, 100]: one flag
/// per integer coordinate, mutated by the same history as the grid and
/// sharing no code with IntervalSet.
struct ShadowTrack {
  std::array<bool, 101> blocked{};

  void set(const Interval& span, bool value) {
    for (geom::Coord c = std::max<geom::Coord>(0, span.lo);
         c <= std::min<geom::Coord>(100, span.hi); ++c) {
      blocked[static_cast<std::size_t>(c)] = value;
    }
  }
  bool at(geom::Coord c) const { return blocked[static_cast<std::size_t>(c)]; }

  /// The maximal free gap containing \p v, by walking outward flag by flag.
  std::optional<Interval> gap(geom::Coord v) const {
    if (v < 0 || v > 100 || at(v)) return std::nullopt;
    geom::Coord lo = v;
    geom::Coord hi = v;
    while (lo > 0 && !at(lo - 1)) --lo;
    while (hi < 100 && !at(hi + 1)) ++hi;
    return Interval(lo, hi);
  }

  /// The maximal blocked runs, in ascending order.
  std::vector<Interval> runs() const {
    std::vector<Interval> out;
    for (geom::Coord c = 0; c <= 100; ++c) {
      if (!at(c)) continue;
      geom::Coord hi = c;
      while (hi < 100 && at(hi + 1)) ++hi;
      out.emplace_back(c, hi);
      c = hi;
    }
    return out;
  }
};

/// A 10 x 10-track grid whose tracks all span the universe [0, 100].
TrackGrid hundred_grid() {
  return TrackGrid::uniform(Rect(0, 0, 100, 100), 10, 10);
}

void expect_h_matches(const TrackGrid& grid, int i, const ShadowTrack& ref,
                      geom::Coord v) {
  EXPECT_EQ(grid.h_blocked(i).runs(), ref.runs()) << "h" << i;
  EXPECT_EQ(grid.h_free_segment(i, v), ref.gap(v)) << "h" << i << " @" << v;
}

void expect_v_matches(const TrackGrid& grid, int j, const ShadowTrack& ref,
                      geom::Coord v) {
  EXPECT_EQ(grid.v_blocked(j).runs(), ref.runs()) << "v" << j;
  EXPECT_EQ(grid.v_free_segment(j, v), ref.gap(v)) << "v" << j << " @" << v;
}

TEST(TrackGrid, BlockUnblockSequencesMatchBruteForceGaps) {
  // A scripted history of every shape: split a gap in two, trim its
  // ends, erase it, re-open one point, and merge across boundaries.
  TrackGrid grid = hundred_grid();
  ShadowTrack ref;
  const auto block = [&](const Interval& span) {
    grid.block_h(3, span);
    ref.set(span, true);
  };
  const auto unblock = [&](const Interval& span) {
    grid.unblock_h(3, span);
    ref.set(span, false);
  };
  block(Interval(20, 40));
  block(Interval(0, 5));
  block(Interval(90, 100));
  block(Interval(41, 60));
  block(Interval(10, 15));
  unblock(Interval(20, 40));
  for (geom::Coord x = -1; x <= 101; ++x) expect_h_matches(grid, 3, ref, x);
  block(Interval(0, 100));
  unblock(Interval(30, 30));
  for (geom::Coord x = -1; x <= 101; ++x) expect_h_matches(grid, 3, ref, x);
  unblock(Interval(0, 100));
  for (geom::Coord x = -1; x <= 101; ++x) expect_h_matches(grid, 3, ref, x);
}

TEST(TrackGrid, RandomizedHistoryMatchesBruteForceGaps) {
  util::Rng rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    TrackGrid grid = hundred_grid();
    std::vector<ShadowTrack> ref_h(static_cast<std::size_t>(grid.num_h()));
    std::vector<ShadowTrack> ref_v(static_cast<std::size_t>(grid.num_v()));
    for (int step = 0; step < 80; ++step) {
      const int i = static_cast<int>(rng.uniform_int(0, grid.num_h() - 1));
      const int j = static_cast<int>(rng.uniform_int(0, grid.num_v() - 1));
      const geom::Coord lo = rng.uniform_int(0, 100);
      const geom::Coord hi =
          std::min<geom::Coord>(100, lo + rng.uniform_int(0, 25));
      const Interval span(lo, hi);
      ShadowTrack& th = ref_h[static_cast<std::size_t>(i)];
      ShadowTrack& tv = ref_v[static_cast<std::size_t>(j)];
      switch (rng.uniform_int(0, 3)) {
        case 0: grid.block_h(i, span); th.set(span, true); break;
        case 1: grid.unblock_h(i, span); th.set(span, false); break;
        case 2: grid.block_v(j, span); tv.set(span, true); break;
        default: grid.unblock_v(j, span); tv.set(span, false); break;
      }
      // Probe the mutated tracks at a handful of points each step,
      // including just outside the universe.
      for (int probe = 0; probe < 6; ++probe) {
        const geom::Coord q = rng.uniform_int(-2, 102);
        expect_h_matches(grid, i, th, q);
        expect_v_matches(grid, j, tv, q);
      }
    }
  }
}

TEST(TrackGrid, AlreadyBlockedAndAlreadyFreeSpansAreNoOps) {
  TrackGrid grid = hundred_grid();
  grid.block_h(2, Interval(30, 70));
  const std::vector<Interval> before = grid.h_blocked(2).runs();
  grid.block_h(2, Interval(40, 50));    // inside an already-blocked run
  grid.unblock_h(2, Interval(80, 90));  // inside an already-free gap
  grid.unblock_v(5, Interval(0, 100));  // a never-blocked track
  EXPECT_EQ(grid.h_blocked(2).runs(), before);
  EXPECT_TRUE(grid.v_blocked(5).empty());
  ShadowTrack ref;
  ref.set(Interval(30, 70), true);
  for (geom::Coord x = -1; x <= 101; ++x) expect_h_matches(grid, 2, ref, x);
}

TEST(TrackGrid, ConcurrentConstReadersShareOneGrid) {
  // Const queries read the blocked runs and nothing else, so threads may
  // share a grid nobody mutates with no preparation step (the sharded
  // engine's batch contract). Under TSan this proves the reads race-free;
  // everywhere it checks each thread sees the single-threaded answers.
  TrackGrid grid = hundred_grid();
  grid.block_h(4, Interval(25, 75));
  grid.block_h(4, Interval(90, 92));
  grid.block_v(6, Interval(10, 50));
  grid.block_region_h(Rect(0, 30, 40, 60));
  const TrackGrid& shared = grid;

  struct Probe {
    int i, j;
    geom::Coord q;
    std::optional<Interval> h_gap, v_gap;
    std::optional<geom::Coord> h_dist;
    bool crossing;
  };
  util::Rng rng(99);
  std::vector<Probe> probes;
  for (int k = 0; k < 500; ++k) {
    Probe p{};
    p.i = static_cast<int>(rng.uniform_int(0, shared.num_h() - 1));
    p.j = static_cast<int>(rng.uniform_int(0, shared.num_v() - 1));
    p.q = rng.uniform_int(0, 100);
    p.h_gap = shared.h_free_segment(p.i, p.q);
    p.v_gap = shared.v_free_segment(p.j, p.q);
    p.h_dist = shared.h_distance_to_blocked(p.i, p.q);
    p.crossing = shared.crossing_free(p.i, p.j);
    probes.push_back(p);
  }

  std::vector<int> mismatches(8, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&shared, &probes, &mismatches, t] {
      for (int round = 0; round < 4; ++round) {
        for (const Probe& p : probes) {
          const bool same =
              shared.h_free_segment(p.i, p.q) == p.h_gap &&
              shared.v_free_segment(p.j, p.q) == p.v_gap &&
              shared.h_distance_to_blocked(p.i, p.q) == p.h_dist &&
              shared.crossing_free(p.i, p.j) == p.crossing;
          mismatches[static_cast<std::size_t>(t)] += same ? 0 : 1;
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(Graph, CompleteWithoutObstacles) {
  const TrackGrid g = small_grid();
  const TrackIntersectionGraph tig = build_tig(g);
  EXPECT_EQ(tig.num_h, 3);
  EXPECT_EQ(tig.num_v, 4);
  EXPECT_EQ(tig.num_edges(), 12u);
  EXPECT_TRUE(tig.complete());
}

TEST(Graph, ObstacleRemovesEdges) {
  TrackGrid g = small_grid();
  g.block_h(1, Interval(14, 26));  // kills crossings (h2,v2) and (h2,v3)
  const TrackIntersectionGraph tig = build_tig(g);
  EXPECT_EQ(tig.num_edges(), 10u);
  EXPECT_FALSE(tig.complete());
  EXPECT_EQ(tig.adjacency_h[1], (std::vector<int>{0, 3}));
}

TEST(Graph, BipartiteConsistency) {
  TrackGrid g = small_grid();
  g.block_v(2, Interval(0, 40));  // v3 fully blocked
  const TrackIntersectionGraph tig = build_tig(g);
  EXPECT_TRUE(tig.adjacency_v[2].empty());
  for (const auto& adj : tig.adjacency_h) {
    for (int j : adj) EXPECT_NE(j, 2);
  }
  // Edge count symmetric across the two sides.
  std::size_t from_v = 0;
  for (const auto& adj : tig.adjacency_v) from_v += adj.size();
  EXPECT_EQ(from_v, tig.num_edges());
}

TEST(Graph, ToStringLabelsTracks) {
  const TrackGrid g = small_grid();
  const auto str = build_tig(g).to_string();
  EXPECT_NE(str.find("h1: v1 v2 v3 v4"), std::string::npos);
}

}  // namespace
}  // namespace ocr::tig
