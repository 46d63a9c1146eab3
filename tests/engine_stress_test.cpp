/// \file engine_stress_test.cpp
/// \brief Threaded stress for the engine: many workers, tiny halos,
/// repeated runs. Primarily a ThreadSanitizer target (the CI TSan job
/// runs exactly this binary); the assertions double as a determinism
/// check under contention.

#include <gtest/gtest.h>

#include <cstdlib>

#include "bench_data/levelb_instance.hpp"
#include "engine/engine.hpp"
#include "levelb/router.hpp"
#include "util/rng.hpp"

namespace ocr::engine {
namespace {

using geom::Point;
using geom::Rect;
using levelb::BNet;

/// Worker count for the contended cases: OCR_STRESS_THREADS overrides the
/// default (the CI TSan job runs the binary once per matrix entry).
int stress_threads(int fallback) {
  const char* env = std::getenv("OCR_STRESS_THREADS");
  if (env != nullptr) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) return parsed;
  }
  return fallback;
}

std::vector<BNet> dense_nets(std::uint64_t seed, geom::Coord size,
                             int count) {
  util::Rng rng(seed);
  std::vector<BNet> nets;
  for (int n = 0; n < count; ++n) {
    BNet net{n, {}};
    const int degree = static_cast<int>(rng.uniform_int(2, 3));
    for (int t = 0; t < degree; ++t) {
      net.terminals.push_back(
          Point{rng.uniform_int(0, size - 1), rng.uniform_int(0, size - 1)});
    }
    net.sensitive = n % 7 == 3;
    nets.push_back(std::move(net));
  }
  return nets;
}

/// Local nets over a die far wider than the shard halo: the plan forms
/// wide batches, so every worker of a batch searches at once.
bench_data::LevelBInstance local_instance(std::uint64_t seed, int count) {
  bench_data::LevelBSpec spec;
  spec.seed = seed;
  spec.size = 3000;
  spec.num_nets = count;
  spec.locality = 40;
  spec.sensitive_every = 7;
  return bench_data::generate_levelb_instance(spec);
}

levelb::LevelBResult serial_route(tig::TrackGrid grid,
                                  const std::vector<BNet>& nets) {
  levelb::LevelBRouter serial(grid);
  return serial.route(nets);
}

TEST(EngineStress, RepeatedContendedRunsStayDeterministic) {
  // Small grid + many nets = dense occupancy. A 1-pitch halo still packs
  // overlapping nets into shared batches, so region escapes are frequent;
  // every run must reproduce the serial answer.
  const std::vector<BNet> nets = dense_nets(21, 260, 40);
  const levelb::LevelBResult expected = serial_route(
      tig::TrackGrid::uniform(Rect(0, 0, 260, 260), 9, 11), nets);

  for (int iteration = 0; iteration < 3; ++iteration) {
    tig::TrackGrid grid =
        tig::TrackGrid::uniform(Rect(0, 0, 260, 260), 9, 11);
    EngineOptions options;
    options.threads = stress_threads(8);
    options.shard_halo_pitches = 1;
    RoutingEngine engine(grid, options);
    EXPECT_EQ(engine.route(nets), expected) << "iteration " << iteration;
    const EngineStats& stats = engine.stats();
    EXPECT_EQ(stats.sharded_commits + stats.boundary_nets,
              static_cast<long long>(nets.size()));
    EXPECT_GT(stats.max_batch_size, 1);
  }
}

TEST(EngineStress, LocalNetsManyThreads) {
  const bench_data::LevelBInstance inst = local_instance(33, 120);
  const levelb::LevelBResult expected = serial_route(inst.grid, inst.nets);

  tig::TrackGrid grid = inst.grid;
  EngineOptions options;
  options.threads = stress_threads(8);
  RoutingEngine engine(grid, options);
  EXPECT_EQ(engine.route(inst.nets), expected);
  EXPECT_GT(engine.stats().max_batch_size, 1);
}

TEST(EngineStress, SixteenWorkersWithOverlaysMatchSerial) {
  // More workers than most batches have members: every worker builds its
  // overlay over the shared live grid, and the cursor hands out positions
  // under maximum contention.
  const bench_data::LevelBInstance inst = local_instance(55, 160);
  const levelb::LevelBResult expected = serial_route(inst.grid, inst.nets);

  tig::TrackGrid grid = inst.grid;
  EngineOptions options;
  options.threads = stress_threads(16);
  RoutingEngine engine(grid, options);
  EXPECT_EQ(engine.route(inst.nets), expected);
  EXPECT_GT(engine.stats().max_batch_size, 1);
}

}  // namespace
}  // namespace ocr::engine
