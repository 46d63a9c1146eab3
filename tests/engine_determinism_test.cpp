/// \file engine_determinism_test.cpp
/// \brief The engine's core contract: for a fixed net ordering, the
/// parallel engine's LevelBResult is bit-identical to the serial
/// LevelBRouter's, for any thread count.

#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "levelb/figure1.hpp"
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

/// Same generator shape as bench_scaling: degree-2..4 nets with uniform
/// random terminals; every fifth net is sensitive so batches also close
/// on sensitive commits.
std::vector<BNet> random_nets(std::uint64_t seed, geom::Coord size,
                              int count, bool with_sensitive) {
  util::Rng rng(seed);
  std::vector<BNet> nets;
  for (int n = 0; n < count; ++n) {
    BNet net{n, {}};
    const int degree = static_cast<int>(rng.uniform_int(2, 4));
    for (int t = 0; t < degree; ++t) {
      net.terminals.push_back(
          Point{rng.uniform_int(0, size - 1), rng.uniform_int(0, size - 1)});
    }
    net.sensitive = with_sensitive && n % 5 == 2;
    nets.push_back(std::move(net));
  }
  return nets;
}

LevelBResult serial_route(tig::TrackGrid grid, const std::vector<BNet>& nets,
                          const levelb::LevelBOptions& options = {}) {
  levelb::LevelBRouter router(grid, options);
  return router.route(nets);
}

LevelBResult engine_route(tig::TrackGrid grid, const std::vector<BNet>& nets,
                          int threads, EngineStats* stats = nullptr,
                          EngineOptions options = {}) {
  options.threads = threads;
  RoutingEngine engine(grid, options);
  LevelBResult result = engine.route(nets);
  if (stats != nullptr) *stats = engine.stats();
  return result;
}

TEST(EngineDeterminism, Figure1MatchesSerial) {
  const auto instance = levelb::make_figure1_instance();
  const std::vector<BNet> nets = {BNet{1, {instance.b1, instance.b2}}};
  const LevelBResult serial = serial_route(instance.grid, nets);
  ASSERT_TRUE(serial.nets[0].complete);
  for (int threads : {1, 2, 4, 8, 16}) {
    EXPECT_EQ(engine_route(instance.grid, nets, threads), serial)
        << "threads=" << threads;
  }
}

TEST(EngineDeterminism, RandomSweepMatchesSerial) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<BNet> nets = random_nets(seed, 600, 30, false);
    const LevelBResult serial = serial_route(make_grid(600), nets);
    for (EngineMode mode : {EngineMode::kSharded, EngineMode::kAuto}) {
      EngineOptions options;
      options.mode = mode;
      for (int threads : {1, 2, 4, 8, 16}) {
        EXPECT_EQ(
            engine_route(make_grid(600), nets, threads, nullptr, options),
            serial)
            << "seed=" << seed << " mode=" << engine_mode_name(mode)
            << " threads=" << threads;
      }
    }
  }
}

TEST(EngineDeterminism, SensitiveNetsMatchSerial) {
  // Sensitive commits close their batch, and later nets read the
  // registry they update; the results must land exactly on the serial
  // answer.
  const std::vector<BNet> nets = random_nets(7, 500, 25, true);
  const LevelBResult serial = serial_route(make_grid(500), nets);
  for (int threads : {2, 4, 8}) {
    EngineStats stats;
    EXPECT_EQ(engine_route(make_grid(500), nets, threads, &stats), serial)
        << "threads=" << threads;
    EXPECT_EQ(stats.sharded_commits + stats.boundary_nets,
              static_cast<long long>(nets.size()));
  }
}

TEST(EngineDeterminism, SingleThreadIsTheSerialRouter) {
  const std::vector<BNet> nets = random_nets(4, 300, 10, true);
  EngineStats stats;
  EXPECT_EQ(engine_route(make_grid(300), nets, 1, &stats),
            serial_route(make_grid(300), nets));
  EXPECT_EQ(stats.threads, 1);
  EXPECT_STREQ(stats.mode, "serial");
  EXPECT_EQ(stats.batches, 0);
  EXPECT_EQ(stats.sharded_commits, 0);
  EXPECT_EQ(stats.boundary_nets, 0);
}

TEST(EngineDeterminism, GridCarriesIdenticalWiring) {
  // The caller's grid must hold the same committed occupancy afterwards:
  // probe every track's blocked spans via is-free queries on a lattice.
  const std::vector<BNet> nets = random_nets(9, 300, 15, false);
  tig::TrackGrid serial_grid = make_grid(300);
  tig::TrackGrid engine_grid = make_grid(300);
  levelb::LevelBRouter router(serial_grid);
  router.route(nets);
  RoutingEngine engine(engine_grid, EngineOptions{.threads = 4});
  engine.route(nets);
  for (int i = 0; i < serial_grid.num_h(); ++i) {
    for (geom::Coord x = 0; x < 300; x += 7) {
      EXPECT_EQ(serial_grid.h_is_free(i, geom::Interval(x, x + 6)),
                engine_grid.h_is_free(i, geom::Interval(x, x + 6)))
          << "h track " << i << " at x=" << x;
    }
  }
  for (int j = 0; j < serial_grid.num_v(); ++j) {
    for (geom::Coord y = 0; y < 300; y += 7) {
      EXPECT_EQ(serial_grid.v_is_free(j, geom::Interval(y, y + 6)),
                engine_grid.v_is_free(j, geom::Interval(y, y + 6)))
          << "v track " << j << " at y=" << y;
    }
  }
}

TEST(EngineDeterminism, TraceRecordsEveryNet) {
  const std::vector<BNet> nets = random_nets(13, 300, 12, false);
  util::TraceSink trace;
  EngineOptions options;
  options.levelb.trace = &trace;
  tig::TrackGrid grid = make_grid(300);

  EXPECT_EQ(engine_route(grid, nets, 4, nullptr, options),
            serial_route(make_grid(300), nets));
  // One "net" event per net plus the run-level "engine" totals event.
  EXPECT_EQ(trace.size(), nets.size() + 1);
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"mode\":\"sharded\""), std::string::npos);
  EXPECT_NE(json.find("\"escaped\""), std::string::npos);
  EXPECT_NE(json.find("\"search_us\""), std::string::npos);
  EXPECT_NE(json.find("\"sharded_wasted_vertices\""), std::string::npos);
  EXPECT_NE(json.find("\"sharded_wasted_search_us\""), std::string::npos);
  EXPECT_EQ(json.find("\"speculative\""), std::string::npos);
  EXPECT_EQ(json.find("\"queue_wait_us\""), std::string::npos);
}

}  // namespace
}  // namespace ocr::engine
