/// \file plan_fingerprint_test.cpp
/// \brief Pins whole level-B plans across code changes: every net's path
/// points and the LevelBResult totals are folded into one FNV-1a hash
/// per instance, and the hash must equal a constant recorded when the
/// test was written. Serial and sharded routes at 2 and 4 threads must
/// all reproduce it.
///
/// The identity tests elsewhere compare serial against sharded inside one
/// build; this one compares a build against the plans of earlier builds,
/// so a refactor of the search or the occupancy queries that claims to be
/// bit-identical is proved so here. A deliberate change of plans (a new
/// cost term, a different tie break) updates the constants, and says so.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench_data/levelb_instance.hpp"
#include "engine/engine.hpp"
#include "levelb/router.hpp"
#include "util/hash.hpp"

namespace ocr::levelb {
namespace {

/// Folds each net's id, completeness and path points, then the totals.
std::uint64_t plan_fingerprint(const LevelBResult& result) {
  std::uint64_t h = util::kFnv1aOffset;
  for (const NetResult& net : result.nets) {
    h = util::fnv1a_value(net.id, h);
    h = util::fnv1a_value(net.complete, h);
    h = util::fnv1a_value(net.paths.size(), h);
    for (const Path& path : net.paths) {
      h = util::fnv1a_value(path.points.size(), h);
      for (const geom::Point& p : path.points) {
        h = util::fnv1a_value(p.x, h);
        h = util::fnv1a_value(p.y, h);
      }
    }
  }
  h = util::fnv1a_value(result.routed_nets, h);
  h = util::fnv1a_value(result.failed_nets, h);
  h = util::fnv1a_value(result.total_wire_length, h);
  h = util::fnv1a_value(result.total_corners, h);
  h = util::fnv1a_value(result.vertices_examined, h);
  h = util::fnv1a_value(result.ripup_recovered, h);
  return h;
}

void expect_pinned(const bench_data::LevelBInstance& inst,
                   std::uint64_t want) {
  tig::TrackGrid serial_grid = inst.grid;
  LevelBRouter router(serial_grid);
  const LevelBResult serial = router.route(inst.nets);
  ASSERT_GT(serial.routed_nets, 0) << inst.name;
  EXPECT_EQ(plan_fingerprint(serial), want)
      << inst.name << " serial: routed " << serial.routed_nets
      << ", wire length " << serial.total_wire_length << ", corners "
      << serial.total_corners << ", vertices " << serial.vertices_examined;
  for (const int threads : {2, 4}) {
    engine::EngineOptions options;
    options.threads = threads;
    options.mode = engine::EngineMode::kSharded;
    tig::TrackGrid grid = inst.grid;
    engine::RoutingEngine engine(grid, options);
    EXPECT_EQ(plan_fingerprint(engine.route(inst.nets)), want)
        << inst.name << " sharded at " << threads << " threads";
  }
}

TEST(PlanFingerprint, Ami33OverCellLevelB) {
  expect_pinned(bench_data::ami33_levelb_instance(), 0x34cd0161918a617cull);
}

TEST(PlanFingerprint, Sparse5000) {
  expect_pinned(
      bench_data::generate_levelb_instance(bench_data::sparse5000_spec()),
      0x90fc6bb7fa7b2c3aull);
}

TEST(PlanFingerprint, Sparse100kFourThousandNetCut) {
  expect_pinned(
      bench_data::generate_levelb_instance(bench_data::sparse100k_ci_spec()),
      0xc8ce88c3b515e257ull);
}

}  // namespace
}  // namespace ocr::levelb
