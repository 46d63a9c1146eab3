/// \file gap_cache_test.cpp
/// \brief GapCache correctness: the cached free-gap lists — including the
/// incremental block/unblock patching — must answer every free-segment
/// query exactly like the cache-off IntervalSet scan, through arbitrary
/// block/unblock/rip-up histories; a warmed grid must serve concurrent
/// readers without data races; and routing results must be byte-identical
/// with the cache on or off, serially and under the parallel engine.

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "levelb/router.hpp"
#include "tig/gap_cache.hpp"
#include "tig/track_grid.hpp"
#include "util/rng.hpp"

namespace ocr::tig {
namespace {

using geom::Interval;
using geom::Point;
using geom::Rect;

/// Restores the process-wide cache toggle on scope exit so a failing
/// assertion cannot leak a disabled cache into later tests.
struct CacheToggle {
  explicit CacheToggle(bool on) { GapCache::set_enabled(on); }
  ~CacheToggle() { GapCache::set_enabled(true); }
};

TrackGrid make_grid() {
  return TrackGrid::uniform(Rect(0, 0, 100, 100), 10, 10);
}

/// Queries one horizontal track at \p x with the cache on and off and
/// expects identical gap and crossing-index-range answers.
void expect_h_consistent(const TrackGrid& grid, int i, geom::Coord x) {
  int al = 0, ah = -1, bl = 0, bh = -1;
  GapCache::set_enabled(true);
  const std::optional<Interval> a = grid.h_free_segment_span(i, x, &al, &ah);
  GapCache::set_enabled(false);
  const std::optional<Interval> b = grid.h_free_segment_span(i, x, &bl, &bh);
  GapCache::set_enabled(true);
  ASSERT_EQ(a.has_value(), b.has_value()) << "i=" << i << " x=" << x;
  if (a.has_value()) {
    EXPECT_EQ(a->lo, b->lo) << "i=" << i << " x=" << x;
    EXPECT_EQ(a->hi, b->hi) << "i=" << i << " x=" << x;
    EXPECT_EQ(al, bl) << "i=" << i << " x=" << x;
    EXPECT_EQ(ah, bh) << "i=" << i << " x=" << x;
  }
}

void expect_v_consistent(const TrackGrid& grid, int j, geom::Coord y) {
  int al = 0, ah = -1, bl = 0, bh = -1;
  GapCache::set_enabled(true);
  const std::optional<Interval> a = grid.v_free_segment_span(j, y, &al, &ah);
  GapCache::set_enabled(false);
  const std::optional<Interval> b = grid.v_free_segment_span(j, y, &bl, &bh);
  GapCache::set_enabled(true);
  ASSERT_EQ(a.has_value(), b.has_value()) << "j=" << j << " y=" << y;
  if (a.has_value()) {
    EXPECT_EQ(a->lo, b->lo) << "j=" << j << " y=" << y;
    EXPECT_EQ(a->hi, b->hi) << "j=" << j << " y=" << y;
    EXPECT_EQ(al, bl) << "j=" << j << " y=" << y;
    EXPECT_EQ(ah, bh) << "j=" << j << " y=" << y;
  }
}

TEST(GapCache, BlockUnblockSequencesMatchCacheOff) {
  CacheToggle toggle(true);
  TrackGrid grid = make_grid();
  // A scripted history exercising every patch shape: split a gap in two,
  // trim its ends, erase it, re-open it, and merge across boundaries.
  grid.block_h(3, Interval(20, 40));            // split [0,100]
  grid.block_h(3, Interval(0, 5));              // trim the left gap's lo
  grid.block_h(3, Interval(90, 100));           // trim the right gap's hi
  grid.block_h(3, Interval(41, 60));            // extend a blocked run
  grid.block_h(3, Interval(10, 15));            // split again
  grid.unblock_h(3, Interval(20, 40));          // partial re-open + merge
  grid.block_h(3, Interval(0, 100));            // erase every gap
  grid.unblock_h(3, Interval(30, 30));          // single-point gap
  grid.unblock_h(3, Interval(0, 100));          // full rip-up
  for (geom::Coord x = 0; x <= 100; ++x) expect_h_consistent(grid, 3, x);

  grid.block_v(7, Interval(15, 85));
  grid.unblock_v(7, Interval(40, 60));
  grid.block_v(7, Interval(50, 55));
  for (geom::Coord y = 0; y <= 100; ++y) expect_v_consistent(grid, 7, y);
}

TEST(GapCache, AlreadyBlockedAndAlreadyFreeSpansAreNoOps) {
  CacheToggle toggle(true);
  TrackGrid grid = make_grid();
  grid.block_h(2, Interval(30, 70));
  (void)grid.h_free_segment(2, 0);  // populate the cache entry
  grid.block_h(2, Interval(40, 50));    // inside an already-blocked run
  grid.unblock_h(2, Interval(80, 90));  // inside an already-free gap
  for (geom::Coord x = 0; x <= 100; ++x) expect_h_consistent(grid, 2, x);
}

TEST(GapCache, RandomizedHistoryMatchesCacheOff) {
  CacheToggle toggle(true);
  util::Rng rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    TrackGrid grid = make_grid();
    for (int step = 0; step < 80; ++step) {
      const int i = static_cast<int>(rng.uniform_int(0, grid.num_h() - 1));
      const int j = static_cast<int>(rng.uniform_int(0, grid.num_v() - 1));
      const geom::Coord lo = rng.uniform_int(0, 100);
      const geom::Coord hi =
          std::min<geom::Coord>(100, lo + rng.uniform_int(0, 25));
      const Interval span(lo, hi);
      switch (rng.uniform_int(0, 3)) {
        case 0: grid.block_h(i, span); break;
        case 1: grid.unblock_h(i, span); break;
        case 2: grid.block_v(j, span); break;
        default: grid.unblock_v(j, span); break;
      }
      // Probe the mutated tracks at a handful of points each step.
      for (int probe = 0; probe < 6; ++probe) {
        const geom::Coord q = rng.uniform_int(0, 100);
        expect_h_consistent(grid, i, q);
        expect_v_consistent(grid, j, q);
      }
    }
  }
}

TEST(GapCache, WarmSnapshotServesConcurrentReaders) {
  // A warmed grid's gap cache is frozen: any number of threads may query
  // it concurrently with no writes anywhere (the sharded engine's batch
  // contract). Run under TSan (the CI tsan-engine job includes this
  // binary) to prove the absence of races.
  TrackGrid grid = make_grid();
  grid.block_h(4, Interval(25, 75));
  grid.block_v(6, Interval(10, 50));
  grid.warm_gap_cache();
  const TrackGrid& shared = grid;

  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&shared, t] {
      util::Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int k = 0; k < 2000; ++k) {
        const int i =
            static_cast<int>(rng.uniform_int(0, shared.num_h() - 1));
        const int j =
            static_cast<int>(rng.uniform_int(0, shared.num_v() - 1));
        const geom::Coord q = rng.uniform_int(0, 100);
        int lo = 0, hi = -1;
        (void)shared.h_free_segment_span(i, q, &lo, &hi);
        (void)shared.v_free_segment_span(j, q, &lo, &hi);
      }
    });
  }
  for (std::thread& r : readers) r.join();
}

/// Same random-net recipe as the engine determinism tests.
std::vector<levelb::BNet> random_nets(std::uint64_t seed, geom::Coord size,
                                      int count) {
  util::Rng rng(seed);
  std::vector<levelb::BNet> nets;
  for (int n = 0; n < count; ++n) {
    levelb::BNet net{n, {}};
    const int degree = static_cast<int>(rng.uniform_int(2, 4));
    for (int t = 0; t < degree; ++t) {
      net.terminals.push_back(
          Point{rng.uniform_int(0, size - 1), rng.uniform_int(0, size - 1)});
    }
    nets.push_back(std::move(net));
  }
  return nets;
}

TEST(GapCache, RoutingIsIdenticalWithCacheOnOrOff) {
  // The cache is a pure lookup structure: serial routing and the
  // 8-thread engine must produce byte-identical results either way.
  const std::vector<levelb::BNet> nets = random_nets(42, 500, 25);
  const auto make = [] {
    return TrackGrid::uniform(Rect(0, 0, 500, 500), 9, 11);
  };

  levelb::LevelBResult serial_on, serial_off, engine_on, engine_off;
  {
    CacheToggle toggle(true);
    TrackGrid g1 = make();
    levelb::LevelBRouter router(g1);
    serial_on = router.route(nets);
    TrackGrid g2 = make();
    engine::RoutingEngine engine(g2, engine::EngineOptions{.threads = 8});
    engine_on = engine.route(nets);
  }
  {
    CacheToggle toggle(false);
    TrackGrid g1 = make();
    levelb::LevelBRouter router(g1);
    serial_off = router.route(nets);
    TrackGrid g2 = make();
    engine::RoutingEngine engine(g2, engine::EngineOptions{.threads = 8});
    engine_off = engine.route(nets);
  }
  EXPECT_EQ(serial_on, serial_off);
  EXPECT_EQ(engine_on, serial_on);
  EXPECT_EQ(engine_off, serial_on);
}

TEST(GapCache, IncrementalPatchingAtHundredThousandTracks) {
  // The chunked cache at production scale: a 1M-dbu die at pitch 10
  // carries ~100k tracks per orientation. Sparse block/unblock histories
  // must stay consistent with the cache-off scan, entries must
  // materialize only where blocking happened, and the whole exercise
  // must run in test time (i.e. nothing iterates all 100k tracks per
  // update).
  CacheToggle toggle(true);
  TrackGrid grid =
      TrackGrid::uniform(Rect(0, 0, 1000000, 1000000), 10, 10);
  ASSERT_GE(grid.num_h(), 99999);
  ASSERT_GE(grid.num_v(), 99999);

  util::Rng rng(7);
  std::vector<std::pair<int, Interval>> placed_h, placed_v;
  for (int op = 0; op < 1500; ++op) {
    const int i = static_cast<int>(rng.uniform_int(0, grid.num_h() - 1));
    const int j = static_cast<int>(rng.uniform_int(0, grid.num_v() - 1));
    const geom::Coord x = rng.uniform_int(0, 999000);
    const geom::Coord y = rng.uniform_int(0, 999000);
    const Interval hs{x, x + rng.uniform_int(1, 900)};
    const Interval vs{y, y + rng.uniform_int(1, 900)};
    // Warm the cache entry first so the block is an incremental patch of
    // a valid entry, not a lazy rebuild.
    expect_h_consistent(grid, i, hs.lo);
    expect_v_consistent(grid, j, vs.lo);
    grid.block_h(i, hs);
    grid.block_v(j, vs);
    placed_h.emplace_back(i, hs);
    placed_v.emplace_back(j, vs);
    expect_h_consistent(grid, i, hs.lo > 0 ? hs.lo - 1 : hs.hi + 1);
    expect_v_consistent(grid, j, vs.lo > 0 ? vs.lo - 1 : vs.hi + 1);
  }
  // Rip-up half of what was placed (unblock patching), re-probing around
  // every removal.
  for (std::size_t k = 0; k < placed_h.size(); k += 2) {
    grid.unblock_h(placed_h[k].first, placed_h[k].second);
    grid.unblock_v(placed_v[k].first, placed_v[k].second);
    expect_h_consistent(grid, placed_h[k].first, placed_h[k].second.lo);
    expect_v_consistent(grid, placed_v[k].first, placed_v[k].second.lo);
  }
  // Sparsity: 1500 blocks on 200k tracks must leave the vast majority of
  // chunks unmaterialized (64 tracks per chunk, ~3.1k chunk slots).
  EXPECT_LE(grid.blocked_chunks(), 2 * 1500u);
  EXPECT_GT(grid.grid_bytes(), 0u);
  // Never-touched tracks answer through the universe fast path.
  expect_h_consistent(grid, grid.num_h() / 2 + 1, 500000);
}

}  // namespace
}  // namespace ocr::tig
