/// \file dup_index_test.cpp
/// \brief The dup cost term's terminal index against the flat scan it
/// replaced: the indexed corner_dup must return the same double, bit for
/// bit, for every query point, suffix position and radius — and whole
/// routes must stay identical across thread counts, since the sharded
/// engine's workers read one shared index concurrently.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "bench_data/levelb_instance.hpp"
#include "engine/engine.hpp"
#include "levelb/cost.hpp"
#include "levelb/net_core.hpp"
#include "levelb/router.hpp"
#include "util/rng.hpp"

namespace ocr::levelb {
namespace {

using geom::Coord;
using geom::Point;

/// Reference: the flat scan corner_dup ran before the index — the later
/// nets' terminals in flat order, then the net's own unattached ones.
double flat_dup(std::span<const Point> later, std::span<const Point> own,
                Coord radius, const Point& p) {
  if (radius <= 0) return 0.0;
  std::vector<Point> all(later.begin(), later.end());
  all.insert(all.end(), own.begin(), own.end());
  double total = 0.0;
  for (const Point& u : all) {
    const Coord d = geom::manhattan(p, u);
    if (d < radius) {
      total += 1.0 - static_cast<double>(d) / static_cast<double>(radius);
    }
  }
  return std::min(total, 4.0);
}

double indexed_dup(const TerminalIndex* index, std::size_t from,
                   std::span<const Point> own, Coord radius, const Point& p,
                   std::vector<DupHit>& hits) {
  CostContext ctx;
  ctx.dup_radius = radius;
  ctx.dup_index = index;
  ctx.dup_from = from;
  ctx.dup_own = own;
  ctx.dup_hits = &hits;
  return corner_dup(ctx, p);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Checks one query against the reference; returns the number of
/// terminals within the radius (to show the cases are not vacuous).
int expect_identical(const std::vector<Point>& flat, std::size_t from,
                     const std::vector<Point>& own, Coord radius,
                     const Point& p, std::vector<DupHit>& hits) {
  const TerminalIndex index(flat, radius);
  const std::span<const Point> later =
      std::span<const Point>(flat).subspan(from);
  const double want = flat_dup(later, own, radius, p);
  const double got = indexed_dup(&index, from, own, radius, p, hits);
  EXPECT_TRUE(same_bits(want, got))
      << "query (" << p.x << "," << p.y << ") R=" << radius
      << " from=" << from << ": flat " << want << " indexed " << got;
  int within = 0;
  for (const Point& u : later) within += geom::manhattan(p, u) < radius;
  return within;
}

TEST(DupIndex, RandomInstancesMatchFlatScanBitForBit) {
  std::vector<DupHit> hits;
  int multi_hit_queries = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    const Coord radius = rng.uniform_int(1, 60);
    // A die a few cells wide, anchored anywhere (negative too), so sums
    // of many terms — where summation order shows — are common.
    const Coord x0 = rng.uniform_int(-500, 500);
    const Coord y0 = rng.uniform_int(-500, 500);
    const Coord span = radius * rng.uniform_int(2, 12);
    const int n = static_cast<int>(rng.uniform_int(0, 300));
    std::vector<Point> flat;
    for (int i = 0; i < n; ++i) {
      if (!flat.empty() && rng.chance(0.15)) {
        flat.push_back(flat[rng.index(flat.size())]);  // duplicate
      } else {
        flat.push_back(Point{x0 + rng.uniform_int(0, span),
                             y0 + rng.uniform_int(0, span)});
      }
    }
    const TerminalIndex index(flat, radius);
    for (int q = 0; q < 200; ++q) {
      // Queries reach 3R past the terminals on every side.
      const Point p{x0 + rng.uniform_int(-3 * radius, span + 3 * radius),
                    y0 + rng.uniform_int(-3 * radius, span + 3 * radius)};
      const std::size_t from = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(flat.size())));
      std::vector<Point> own;
      const int own_count = static_cast<int>(rng.uniform_int(0, 3));
      for (int o = 0; o < own_count; ++o) {
        own.push_back(Point{p.x + rng.uniform_int(-radius, radius),
                            p.y + rng.uniform_int(-radius, radius)});
      }
      const std::span<const Point> later =
          std::span<const Point>(flat).subspan(from);
      const double want = flat_dup(later, own, radius, p);
      const double got = indexed_dup(&index, from, own, radius, p, hits);
      ASSERT_TRUE(same_bits(want, got))
          << "seed " << seed << " query " << q << ": flat " << want
          << " indexed " << got;
      int within = 0;
      for (const Point& u : later) within += geom::manhattan(p, u) < radius;
      multi_hit_queries += within >= 3;
    }
  }
  EXPECT_GT(multi_hit_queries, 500);
}

TEST(DupIndex, EverySuffixPositionIncludingTheEmptyOne) {
  util::Rng rng(7);
  const Coord radius = 25;
  std::vector<Point> flat;
  for (int i = 0; i < 60; ++i) {
    flat.push_back(Point{rng.uniform_int(0, 100), rng.uniform_int(0, 100)});
  }
  const std::vector<Point> own{{50, 50}, {40, 60}};
  std::vector<DupHit> hits;
  for (std::size_t from = 0; from <= flat.size(); ++from) {
    for (const Point p : {Point{50, 50}, Point{0, 0}, Point{100, 100},
                          Point{25, 75}, Point{-10, 50}}) {
      expect_identical(flat, from, own, radius, p, hits);
    }
  }
  // Past the last position only the own terminals count.
  const TerminalIndex index(flat, radius);
  EXPECT_EQ(indexed_dup(&index, flat.size(), {}, radius, {50, 50}, hits),
            0.0);
}

TEST(DupIndex, DistancesRMinusOneAndRAcrossCellEdges) {
  const Coord radius = 10;
  std::vector<DupHit> hits;
  // The bounding-box origin is (0, 0) (a terminal sits there), so cell
  // edges are the multiples of R. Probe at, just before and just after
  // the edges, with terminals at distances R-1 and R in every direction
  // and split between dx and dy.
  int counted = 0;
  for (Coord ex = -1; ex <= 1; ++ex) {
    for (Coord ey = -1; ey <= 1; ++ey) {
      const Point p{3 * radius + ex, 2 * radius + ey};
      for (const Coord d : {radius - 1, radius}) {
        for (Coord dx = -d; dx <= d; ++dx) {
          const Coord rest = d - (dx < 0 ? -dx : dx);
          for (const Coord dy : {rest, -rest}) {
            const std::vector<Point> flat{{0, 0}, {p.x + dx, p.y + dy}};
            const TerminalIndex index(flat, radius);
            const double got =
                indexed_dup(&index, 1, {}, radius, p, hits);
            const double want = flat_dup(
                std::span<const Point>(flat).subspan(1), {}, radius, p);
            ASSERT_TRUE(same_bits(want, got));
            if (d == radius - 1) {
              EXPECT_DOUBLE_EQ(got, 1.0 / static_cast<double>(radius));
              ++counted;
            } else {
              EXPECT_EQ(got, 0.0);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(counted, 0);
}

TEST(DupIndex, QueriesOutsideTheBoundingBox) {
  const Coord radius = 16;
  std::vector<Point> flat;
  for (Coord x = 100; x <= 200; x += 7) {
    for (Coord y = 100; y <= 200; y += 9) flat.push_back(Point{x, y});
  }
  std::vector<DupHit> hits;
  // Left of and below the origin (negative cell indices), just inside the
  // radius of the box, far away, and past the far corner.
  const Point probes[] = {{100 - radius + 1, 150}, {150, 100 - radius + 1},
                          {100 - 5, 100 - 5},      {90, 90},
                          {-1000, -1000},          {-1, 150},
                          {200 + radius - 1, 150}, {205, 205},
                          {1000000, 150},          {150, -1000000}};
  int within = 0;
  for (const Point& p : probes) {
    within += expect_identical(flat, 0, {}, radius, p, hits);
  }
  EXPECT_GT(within, 0);
}

TEST(DupIndex, DuplicateTerminalsEachCount) {
  const Coord radius = 8;
  std::vector<DupHit> hits;
  const std::vector<Point> three(3, Point{5, 5});
  EXPECT_EQ(expect_identical(three, 0, {}, radius, {5, 5}, hits), 3);
  const TerminalIndex index(three, radius);
  EXPECT_EQ(indexed_dup(&index, 0, {}, radius, {5, 5}, hits), 3.0);
  // The cap still applies.
  const std::vector<Point> six(6, Point{5, 5});
  const TerminalIndex capped(six, radius);
  EXPECT_EQ(indexed_dup(&capped, 0, {}, radius, {5, 5}, hits), 4.0);
  expect_identical(six, 0, {}, radius, {5, 5}, hits);
}

TEST(DupIndex, ZeroRadiusPitchesTurnTheTermOff) {
  const tig::TrackGrid grid =
      tig::TrackGrid::uniform(geom::Rect(0, 0, 200, 200), 10, 10);
  LevelBOptions options;
  options.dup_radius_pitches = 0.0;
  const std::vector<std::vector<Point>> snapped{{{20, 20}, {30, 30}},
                                                {{40, 40}, {50, 50}}};
  const UnroutedSuffix unrouted(snapped, {0, 1}, grid, options);
  EXPECT_EQ(unrouted.index().cell(), 0);
  CostContext ctx = make_cost_context(grid, options.dup_radius_pitches);
  EXPECT_EQ(ctx.dup_radius, 0);
  std::vector<DupHit> hits;
  const std::vector<Point> own{{40, 40}};
  ctx.dup_index = &unrouted.index();
  ctx.dup_own = own;
  ctx.dup_hits = &hits;
  EXPECT_EQ(corner_dup(ctx, {40, 40}), 0.0);
  EXPECT_EQ(flat_dup(std::span<const Point>(snapped[1]), own, 0, {40, 40}),
            0.0);
}

TEST(DupIndex, OwnTerminalsAreSummedAfterTheIndexHits) {
  util::Rng rng(11);
  const Coord radius = 30;
  std::vector<DupHit> hits;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Point> flat;
    std::vector<Point> own;
    for (int i = 0; i < 12; ++i) {
      flat.push_back(Point{rng.uniform_int(0, 60), rng.uniform_int(0, 60)});
    }
    for (int i = 0; i < 4; ++i) {
      own.push_back(Point{rng.uniform_int(0, 60), rng.uniform_int(0, 60)});
    }
    const Point p{rng.uniform_int(0, 60), rng.uniform_int(0, 60)};
    expect_identical(flat, static_cast<std::size_t>(trial % 13), own,
                     radius, p, hits);
    // No index (rip-up rounds): the own terminals alone.
    ASSERT_TRUE(same_bits(indexed_dup(nullptr, 0, own, radius, p, hits),
                          flat_dup({}, own, radius, p)));
  }
}

TEST(DupIndex, UnroutedSuffixFlattensInOrderingSequence) {
  const tig::TrackGrid grid =
      tig::TrackGrid::uniform(geom::Rect(0, 0, 400, 400), 10, 10);
  const LevelBOptions options;  // 8 pitches: R = 80
  const std::vector<std::vector<Point>> snapped{
      {{20, 20}, {60, 40}}, {{100, 100}}, {{40, 30}, {50, 50}, {50, 50}}};
  const std::vector<std::size_t> order{2, 0, 1};
  const UnroutedSuffix unrouted(snapped, order, grid, options);
  EXPECT_EQ(unrouted.index().cell(), 80);
  EXPECT_EQ(unrouted.suffix_begin(0), 3u);
  EXPECT_EQ(unrouted.suffix_begin(1), 5u);
  EXPECT_EQ(unrouted.suffix_begin(2), 6u);
  std::vector<Point> flat;
  for (const std::size_t i : order) {
    flat.insert(flat.end(), snapped[i].begin(), snapped[i].end());
  }
  std::vector<DupHit> hits;
  for (std::size_t k = 0; k < order.size(); ++k) {
    for (const Point p : {Point{50, 40}, Point{90, 90}, Point{0, 0}}) {
      const std::size_t from = unrouted.suffix_begin(k);
      ASSERT_TRUE(same_bits(
          indexed_dup(&unrouted.index(), from, {}, 80, p, hits),
          flat_dup(std::span<const Point>(flat).subspan(from), {}, 80, p)));
    }
  }
}

TEST(DupIndex, WholeRoutesAreIdenticalSerialAndSharded) {
  const bench_data::LevelBInstance instances[] = {
      bench_data::ami33_levelb_instance(),
      bench_data::generate_levelb_instance(bench_data::sparse5000_spec()),
  };
  for (const bench_data::LevelBInstance& inst : instances) {
    tig::TrackGrid serial_grid = inst.grid;
    LevelBRouter router(serial_grid);
    const LevelBResult serial = router.route(inst.nets);
    EXPECT_GT(serial.routed_nets, 0) << inst.name;
    for (const int threads : {1, 2, 4, 8}) {
      engine::EngineOptions options;
      options.threads = threads;
      options.mode = engine::EngineMode::kSharded;
      tig::TrackGrid grid = inst.grid;
      engine::RoutingEngine engine(grid, options);
      EXPECT_EQ(engine.route(inst.nets), serial)
          << inst.name << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace ocr::levelb
