/// \file grid_overlay_test.cpp
/// \brief GridOverlay equivalence: a GridView over (base grid + overlay)
/// must answer every occupancy query exactly as a mutated deep copy —
/// fuzzed over randomized block/brace sequences, plus targeted brace and
/// rebase cases mirroring the engine's batch workers.

#include <gtest/gtest.h>

#include <vector>

#include "tig/grid_view.hpp"
#include "tig/overlay.hpp"
#include "util/rng.hpp"

namespace ocr::tig {
namespace {

using geom::Coord;
using geom::Interval;
using geom::Rect;

TrackGrid make_grid(Coord size) {
  return TrackGrid::uniform(Rect(0, 0, size, size), 9, 11);
}

Interval random_span(util::Rng& rng, Coord size) {
  const Coord a = rng.uniform_int(0, size - 1);
  const Coord b = rng.uniform_int(0, size - 1);
  return Interval(std::min(a, b), std::max(a, b));
}

/// Asserts every query type answers identically through a view of the
/// overlay and on the reference grid (the deep copy the overlay replaces).
void expect_equivalent(const GridOverlay& overlay, const TrackGrid& ref,
                       util::Rng& rng, Coord size) {
  const GridView view(overlay);
  for (int i = 0; i < ref.num_h(); ++i) {
    ASSERT_EQ(view.h_blocked(i).runs(), ref.h_blocked(i).runs())
        << "h track " << i;
    for (int probe = 0; probe < 4; ++probe) {
      const Coord x = rng.uniform_int(0, size - 1);
      EXPECT_EQ(view.h_free_segment(i, x), ref.h_free_segment(i, x))
          << "h track " << i << " x=" << x;
      EXPECT_EQ(view.h_distance_to_blocked(i, x),
                ref.h_distance_to_blocked(i, x));
      const Interval span = random_span(rng, size);
      EXPECT_EQ(view.h_is_free(i, span), ref.h_is_free(i, span));
      EXPECT_EQ(view.h_blocked_fraction(i, span),
                ref.h_blocked_fraction(i, span));
    }
  }
  for (int j = 0; j < ref.num_v(); ++j) {
    ASSERT_EQ(view.v_blocked(j).runs(), ref.v_blocked(j).runs())
        << "v track " << j;
    for (int probe = 0; probe < 4; ++probe) {
      const Coord y = rng.uniform_int(0, size - 1);
      EXPECT_EQ(view.v_free_segment(j, y), ref.v_free_segment(j, y))
          << "v track " << j << " y=" << y;
      EXPECT_EQ(view.v_distance_to_blocked(j, y),
                ref.v_distance_to_blocked(j, y));
      const Interval span = random_span(rng, size);
      EXPECT_EQ(view.v_is_free(j, span), ref.v_is_free(j, span));
      EXPECT_EQ(view.v_blocked_fraction(j, span),
                ref.v_blocked_fraction(j, span));
    }
  }
  for (int probe = 0; probe < 32; ++probe) {
    const int i = static_cast<int>(rng.uniform_int(0, ref.num_h() - 1));
    const int j = static_cast<int>(rng.uniform_int(0, ref.num_v() - 1));
    EXPECT_EQ(view.crossing_free(i, j), ref.crossing_free(i, j));
  }
}

TEST(GridOverlay, UntouchedOverlayMatchesBase) {
  util::Rng rng(1);
  const Coord size = 200;
  TrackGrid base = make_grid(size);
  for (int b = 0; b < 12; ++b) {
    if (rng.uniform_int(0, 1) == 0) {
      base.block_h(static_cast<int>(rng.uniform_int(0, base.num_h() - 1)),
                   random_span(rng, size));
    } else {
      base.block_v(static_cast<int>(rng.uniform_int(0, base.num_v() - 1)),
                   random_span(rng, size));
    }
  }
  GridOverlay overlay(&base);
  EXPECT_EQ(overlay.touched_tracks(), 0u);
  expect_equivalent(overlay, base, rng, size);
}

TEST(GridOverlay, FuzzMutationSequencesMatchDeepCopy) {
  // The core identity claim: after any interleaving of blocks and
  // unblocks (commit ops and terminal braces alike), every query on
  // (immutable base + overlay) equals the same query on a deep copy that
  // applied the same ops directly.
  const Coord size = 200;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    TrackGrid base = make_grid(size);
    for (int b = 0; b < 10; ++b) {
      if (rng.uniform_int(0, 1) == 0) {
        base.block_h(static_cast<int>(rng.uniform_int(0, base.num_h() - 1)),
                     random_span(rng, size));
      } else {
        base.block_v(static_cast<int>(rng.uniform_int(0, base.num_v() - 1)),
                     random_span(rng, size));
      }
    }
  
    TrackGrid copy = base;  // the worker's old per-epoch deep copy
    GridOverlay overlay(&base);
    for (int step = 0; step < 40; ++step) {
      const bool horizontal = rng.uniform_int(0, 1) == 0;
      const bool block = rng.uniform_int(0, 2) != 0;  // blocks dominate
      // Degenerate one-coordinate spans mimic terminal braces; wider
      // spans mimic committed extents.
      Interval span = random_span(rng, size);
      if (rng.uniform_int(0, 3) == 0) span = Interval(span.lo, span.lo);
      if (horizontal) {
        const int i =
            static_cast<int>(rng.uniform_int(0, base.num_h() - 1));
        if (block) {
          overlay.block_h(i, span);
          copy.block_h(i, span);
        } else {
          overlay.unblock_h(i, span);
          copy.unblock_h(i, span);
        }
      } else {
        const int j =
            static_cast<int>(rng.uniform_int(0, base.num_v() - 1));
        if (block) {
          overlay.block_v(j, span);
          copy.block_v(j, span);
        } else {
          overlay.unblock_v(j, span);
          copy.unblock_v(j, span);
        }
      }
      if (step % 8 == 7) expect_equivalent(overlay, copy, rng, size);
    }
    expect_equivalent(overlay, copy, rng, size);
    EXPECT_GT(overlay.touched_tracks(), 0u);
  }
}

TEST(GridOverlay, BraceRoundTripLeavesQueriesAtBase) {
  // unblock-then-reblock of a terminal crossing (the worker's per-net
  // brace) must restore exactly the base occupancy — the canonical
  // IntervalSet representation guarantees the round trip is lossless.
  util::Rng rng(5);
  const Coord size = 200;
  TrackGrid base = make_grid(size);
  base.block_h(3, Interval(0, size));
  base.block_v(4, Interval(0, size));
  GridOverlay overlay(&base);

  const Coord x = base.v_x(4);
  const Coord y = base.h_y(3);
  overlay.unblock_h(3, Interval(x, x));
  overlay.unblock_v(4, Interval(y, y));
  EXPECT_TRUE(GridView(overlay).crossing_free(3, 4));
  overlay.block_h(3, Interval(x, x));
  overlay.block_v(4, Interval(y, y));
  expect_equivalent(overlay, base, rng, size);
}

TEST(GridOverlay, RebaseDropsDeltasInOTouched) {
  util::Rng rng(3);
  const Coord size = 200;
  TrackGrid base = make_grid(size);
  GridOverlay overlay(&base);
  overlay.block_h(2, Interval(10, 50));
  overlay.block_v(5, Interval(20, 80));
  EXPECT_EQ(overlay.touched_tracks(), 2u);
  EXPECT_FALSE(GridView(overlay).h_is_free(2, Interval(10, 50)));

  overlay.rebase(&base);
  EXPECT_EQ(overlay.touched_tracks(), 0u);
  EXPECT_TRUE(GridView(overlay).h_is_free(2, Interval(10, 50)));
  expect_equivalent(overlay, base, rng, size);
}

}  // namespace
}  // namespace ocr::tig
