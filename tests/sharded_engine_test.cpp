/// \file sharded_engine_test.cpp
/// \brief The sharded engine's contract: bit-identical to the serial
/// router at any thread count, with no wasted work for intra-batch nets.
/// Region escapes surface as boundary_nets and are recovered serially,
/// never as wrong wiring. Auto mode picks sharded or serial from the
/// plan's mean batch.

#include <gtest/gtest.h>

#include <algorithm>

#include "bench_data/levelb_instance.hpp"
#include "engine/engine.hpp"
#include "levelb/router.hpp"
#include "util/rng.hpp"

namespace ocr::engine {
namespace {

using geom::Point;
using geom::Rect;
using levelb::BNet;
using levelb::LevelBResult;

tig::TrackGrid make_grid(geom::Coord size) {
  return tig::TrackGrid::uniform(Rect(0, 0, size, size), 9, 11);
}

/// Local nets scattered over a large die — the workload sharding targets.
/// Every seventh net is sensitive when requested (exercising the
/// batch-closing rule and the w24 registry handoff).
std::vector<BNet> clustered_nets(std::uint64_t seed, geom::Coord size,
                                 int count, geom::Coord locality,
                                 bool with_sensitive) {
  util::Rng rng(seed);
  std::vector<BNet> nets;
  for (int n = 0; n < count; ++n) {
    BNet net{n, {}};
    const Point center{rng.uniform_int(0, size - 1),
                       rng.uniform_int(0, size - 1)};
    const int degree = static_cast<int>(rng.uniform_int(2, 4));
    for (int t = 0; t < degree; ++t) {
      const geom::Coord x = std::clamp<geom::Coord>(
          center.x + rng.uniform_int(0, 2 * locality) - locality, 0,
          size - 1);
      const geom::Coord y = std::clamp<geom::Coord>(
          center.y + rng.uniform_int(0, 2 * locality) - locality, 0,
          size - 1);
      net.terminals.push_back(Point{x, y});
    }
    net.sensitive = with_sensitive && n % 7 == 3;
    nets.push_back(std::move(net));
  }
  return nets;
}

LevelBResult serial_route(tig::TrackGrid grid,
                          const std::vector<BNet>& nets) {
  levelb::LevelBRouter router(grid);
  return router.route(nets);
}

LevelBResult sharded_route(tig::TrackGrid grid,
                           const std::vector<BNet>& nets, int threads,
                           EngineStats* stats = nullptr,
                           EngineOptions options = {}) {
  options.threads = threads;
  options.mode = EngineMode::kSharded;
  RoutingEngine engine(grid, options);
  LevelBResult result = engine.route(nets);
  if (stats != nullptr) *stats = engine.stats();
  return result;
}

/// The per-position accounting: every position lands in exactly one of
/// {batch commit, boundary re-route} on a fault-free run.
void expect_sharded_accounting(const EngineStats& stats, std::size_t n) {
  EXPECT_STREQ(stats.mode, "sharded");
  EXPECT_EQ(stats.worker_failures, 0);
  EXPECT_EQ(stats.sharded_commits + stats.boundary_nets,
            static_cast<long long>(n));
  EXPECT_GE(stats.batches, 1);
  EXPECT_GE(stats.max_batch_size, 1);
}

TEST(ShardedEngine, ClusteredMatchesSerialAtEveryThreadCount) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<BNet> nets = clustered_nets(seed, 2000, 60, 50, false);
    const LevelBResult serial = serial_route(make_grid(2000), nets);
    for (int threads : {2, 4, 8}) {
      EngineStats stats;
      EXPECT_EQ(sharded_route(make_grid(2000), nets, threads, &stats),
                serial)
          << "seed=" << seed << " threads=" << threads;
      expect_sharded_accounting(stats, nets.size());
    }
  }
}

TEST(ShardedEngine, ClusteredPlanExposesParallelism) {
  const std::vector<BNet> nets = clustered_nets(4, 3000, 80, 40, false);
  EngineStats stats;
  const LevelBResult serial = serial_route(make_grid(3000), nets);
  EXPECT_EQ(sharded_route(make_grid(3000), nets, 4, &stats), serial);
  expect_sharded_accounting(stats, nets.size());
  EXPECT_LT(stats.batches, static_cast<long long>(nets.size()));
  EXPECT_GT(stats.max_batch_size, 1);
}

TEST(ShardedEngine, SensitiveNetsMatchSerial) {
  // Sensitive nets close their batches; the copy-on-write registry
  // handoff must reproduce the serial w24 penalties exactly.
  const std::vector<BNet> nets = clustered_nets(7, 1500, 50, 60, true);
  const LevelBResult serial = serial_route(make_grid(1500), nets);
  for (int threads : {2, 4}) {
    EngineStats stats;
    EXPECT_EQ(sharded_route(make_grid(1500), nets, threads, &stats),
              serial)
        << "threads=" << threads;
    expect_sharded_accounting(stats, nets.size());
  }
}

TEST(ShardedEngine, TinyHaloStillMatchesSerial) {
  // A 1-pitch halo under-declares regions aggressively: escapes become
  // likely, and every one must be caught by the footprint check and
  // recovered to the exact serial result.
  const std::vector<BNet> nets = clustered_nets(9, 900, 60, 80, true);
  const LevelBResult serial = serial_route(make_grid(900), nets);
  EngineOptions options;
  options.shard_halo_pitches = 1;
  EngineStats stats;
  EXPECT_EQ(sharded_route(make_grid(900), nets, 4, &stats, options),
            serial);
  expect_sharded_accounting(stats, nets.size());
}

TEST(ShardedEngine, DenseOverlapDegradesGracefully) {
  // Nets spanning most of the die: batches collapse toward singletons,
  // and the result must still be the serial one (the dispatch overhead is
  // the only cost).
  const std::vector<BNet> nets = clustered_nets(11, 400, 25, 400, true);
  const LevelBResult serial = serial_route(make_grid(400), nets);
  EngineStats stats;
  EXPECT_EQ(sharded_route(make_grid(400), nets, 4, &stats), serial);
  expect_sharded_accounting(stats, nets.size());
}

TEST(ShardedEngine, AutoPicksShardedOnLocalWorkload) {
  const std::vector<BNet> nets = clustered_nets(13, 3000, 80, 40, false);
  EngineOptions options;
  options.threads = 4;
  options.mode = EngineMode::kAuto;
  tig::TrackGrid grid = make_grid(3000);
  RoutingEngine engine(grid, options);
  const LevelBResult result = engine.route(nets);
  EXPECT_STREQ(engine.stats().mode, "sharded");
  EXPECT_EQ(result, serial_route(make_grid(3000), nets));
}

TEST(ShardedEngine, AutoFallsBackToSerialOnOverlap) {
  // Die-spanning nets give a degenerate plan (mean batch ~1); auto must
  // run the serial router, and the answer is still serial-exact.
  std::vector<BNet> nets = clustered_nets(15, 400, 20, 400, false);
  for (BNet& net : nets) {
    net.terminals.front() = Point{0, 0};
    net.terminals.back() = Point{399, 399};
  }
  EngineOptions options;
  options.threads = 4;
  options.mode = EngineMode::kAuto;
  tig::TrackGrid grid = make_grid(400);
  RoutingEngine engine(grid, options);
  const LevelBResult result = engine.route(nets);
  EXPECT_STREQ(engine.stats().mode, "serial");
  EXPECT_LT(engine.stats().plan_mean_batch, kAutoMinMeanBatch);
  EXPECT_EQ(engine.stats().batches, 0);
  EXPECT_EQ(result, serial_route(make_grid(400), nets));
}

TEST(ShardedEngine, AutoFollowsThePlanMeanBatch) {
  // ami33's plan is mostly singleton batches: auto routes it serially.
  // sparse-5000's local nets form wide batches: auto shards it. Either
  // way the wiring is the 1-thread route's.
  struct Case {
    bench_data::LevelBInstance inst;
    bool wide;
  };
  const Case cases[] = {
      {bench_data::ami33_levelb_instance(), false},
      {bench_data::generate_levelb_instance(bench_data::sparse5000_spec()),
       true},
  };
  for (const Case& c : cases) {
    const LevelBResult serial = serial_route(c.inst.grid, c.inst.nets);
    EngineOptions options;
    options.threads = 4;
    options.mode = EngineMode::kAuto;
    tig::TrackGrid grid = c.inst.grid;
    RoutingEngine engine(grid, options);
    EXPECT_EQ(engine.route(c.inst.nets), serial) << c.inst.name;
    const EngineStats& stats = engine.stats();
    if (c.wide) {
      EXPECT_GE(stats.plan_mean_batch, kAutoMinMeanBatch) << c.inst.name;
      EXPECT_STREQ(stats.mode, "sharded") << c.inst.name;
    } else {
      EXPECT_LT(stats.plan_mean_batch, kAutoMinMeanBatch) << c.inst.name;
      EXPECT_STREQ(stats.mode, "serial") << c.inst.name;
    }
  }
}

TEST(ShardedEngine, SingleThreadIsTheSerialRouter) {
  // threads == 1 bypasses dispatch modes entirely.
  const std::vector<BNet> nets = clustered_nets(17, 600, 20, 60, true);
  EngineStats stats;
  EXPECT_EQ(sharded_route(make_grid(600), nets, 1, &stats),
            serial_route(make_grid(600), nets));
  EXPECT_STREQ(stats.mode, "serial");
  EXPECT_EQ(stats.batches, 0);
}

TEST(ShardedEngine, GridCarriesIdenticalWiring) {
  const std::vector<BNet> nets = clustered_nets(19, 800, 30, 70, false);
  tig::TrackGrid serial_grid = make_grid(800);
  tig::TrackGrid sharded_grid = make_grid(800);
  levelb::LevelBRouter router(serial_grid);
  router.route(nets);
  EngineOptions options;
  options.threads = 4;
  options.mode = EngineMode::kSharded;
  RoutingEngine engine(sharded_grid, options);
  engine.route(nets);
  for (int i = 0; i < serial_grid.num_h(); ++i) {
    for (geom::Coord x = 0; x < 800; x += 7) {
      EXPECT_EQ(serial_grid.h_is_free(i, geom::Interval(x, x + 6)),
                sharded_grid.h_is_free(i, geom::Interval(x, x + 6)))
          << "h track " << i << " at x=" << x;
    }
  }
  for (int j = 0; j < serial_grid.num_v(); ++j) {
    for (geom::Coord y = 0; y < 800; y += 7) {
      EXPECT_EQ(serial_grid.v_is_free(j, geom::Interval(y, y + 6)),
                sharded_grid.v_is_free(j, geom::Interval(y, y + 6)))
          << "v track " << j << " at y=" << y;
    }
  }
}

TEST(ShardedEngine, TraceRecordsEveryNetWithBatchFields) {
  const std::vector<BNet> nets = clustered_nets(21, 1200, 25, 50, false);
  util::TraceSink trace;
  EngineOptions options;
  options.levelb.trace = &trace;
  EXPECT_EQ(sharded_route(make_grid(1200), nets, 4, nullptr, options),
            serial_route(make_grid(1200), nets));
  EXPECT_EQ(trace.size(), nets.size() + 1);
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"mode\":\"sharded\""), std::string::npos);
  EXPECT_NE(json.find("\"engine_mode\":\"sharded\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\""), std::string::npos);
  EXPECT_NE(json.find("\"escaped\""), std::string::npos);
  EXPECT_NE(json.find("\"boundary_nets\""), std::string::npos);
  EXPECT_NE(json.find("\"sharded_commits\""), std::string::npos);
}

TEST(ShardedEngine, ModeNamesRoundTrip) {
  for (EngineMode m : {EngineMode::kSharded, EngineMode::kAuto}) {
    const util::StatusOr<EngineMode> parsed =
        parse_engine_mode(engine_mode_name(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), m);
  }
  for (const char* bad : {"bogus", "speculative", ""}) {
    const util::StatusOr<EngineMode> parsed = parse_engine_mode(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().kind(), util::StatusKind::kInvalidArgument);
    EXPECT_EQ(parsed.status().stage(), "engine");
    EXPECT_NE(parsed.status().message().find("sharded, auto"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace ocr::engine
