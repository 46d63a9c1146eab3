#pragma once
/// \file workspace.hpp
/// \brief Caller-owned scratch state for PathFinder::connect.
///
/// One MBFS expansion is the router's innermost hot path; the workspace
/// removes its steady-state heap traffic by letting the *caller* own every
/// buffer the search needs and reuse it across connects:
///
/// * **Visited marks** — one slot per (orientation, track), stamped with a
///   generation counter. Starting a pass bumps the generation instead of
///   clearing; a slot's content is live only when its stamp matches. Each
///   slot holds the free segments already visited on that track (almost
///   always one). Because a track's free segments are disjoint, "crossing
///   coordinate inside a visited segment" is exactly the
///   (orientation, track, segment.lo) visited-set test of the original
///   `std::set` — and it runs *before* the free-segment lookup, so
///   re-probed crossings skip the occupancy query entirely.
/// * **Index-based BFS queue** — a vector with a head cursor; no deque
///   chunk churn.
/// * **Tree / arrival / candidate buffers** — node storage for both Path
///   Selection Trees, the arrival lists, the materialized candidate
///   polylines and their dedup hashes, all cleared-with-capacity between
///   passes.
/// * **Net-level buffers** — the per-Prim-iteration target list and own
///   dup terminals of route_single_net, and the dup term's index hits.
///
/// Thread contract: a workspace belongs to exactly one thread at a time
/// (the serial router, one engine worker, or the committer's fallback
/// path). It never influences routing *results* — only where the
/// intermediate state lives — so runs with fresh, reused, or shared-
/// across-nets workspaces are bit-identical.

#include <cstdint>
#include <vector>

#include "levelb/path_finder.hpp"
#include "util/arena.hpp"
#include "util/metrics.hpp"

namespace ocr::levelb {

/// One target attachment found by an MBFS pass (internal to connect).
struct SearchArrival {
  int parent = 0;       ///< tree node the target was reached from
  geom::Point corner;   ///< crossing onto the target track
  tig::TrackRef target; ///< which target track was reached
};

/// Reusable scratch state for PathFinder::connect. Default-constructed
/// empty; sized lazily against the grid on first use.
struct SearchWorkspace {
  /// Generation-stamped visited marks for one track. The first visited
  /// segment is stored inline — almost every track sees exactly one per
  /// pass, so the hot-path membership test touches only this slot (one
  /// contiguous array element), not a heap-allocated vector.
  /// Overflow segments (the rare >1-per-track case) live in the
  /// workspace arena: a raw pointer + capacity, stamped with the arena
  /// epoch they were allocated under. `connect` resets the arena, which
  /// reclaims every overflow list at once; a stale epoch stamp tells
  /// `visit` the pointer is from a previous connect and must be
  /// re-allocated, never dereferenced.
  struct VisitSlot {
    std::uint64_t gen = 0;            ///< stamp; live iff == generation
    geom::Interval first{0, 0};       ///< first visited segment (count>=1)
    int count = 0;                    ///< visited segments this pass
    geom::Interval* overflow = nullptr;  ///< segments beyond the first
    int overflow_cap = 0;             ///< arena elements at `overflow`
    std::uint64_t arena_epoch = 0;    ///< arena.epoch() at allocation
  };

  std::vector<VisitSlot> visited_h;   ///< one per horizontal track
  std::vector<VisitSlot> visited_v;   ///< one per vertical track
  std::uint64_t generation = 0;       ///< bumped per MBFS pass

  std::vector<int> queue;             ///< BFS FIFO (head is a cursor)

  PathSelectionTree tree_v;           ///< vertical-rooted pass nodes
  PathSelectionTree tree_h;           ///< horizontal-rooted pass nodes
  std::vector<SearchArrival> arrivals_v;
  std::vector<SearchArrival> arrivals_h;

  std::vector<Path> candidates;       ///< materialized candidate polylines
  std::vector<int> unique;            ///< indices of deduped candidates
  std::vector<std::uint64_t> unique_hashes;  ///< parallel to `unique`
  std::vector<int> chain;             ///< build_path parent walk

  std::vector<geom::Point> targets;     ///< route_single_net attachment list
  std::vector<geom::Point> dup_points;  ///< the net's unattached terminals
  std::vector<DupHit> dup_hits;         ///< corner_dup index hits

  /// Bump storage for the per-connect scratch (visited overflow lists).
  /// Reset at every connect entry: O(1), keeps its blocks, and bumps the
  /// epoch that invalidates the VisitSlot overflow pointers above.
  util::Arena arena;

  /// Sizes the visited arrays for \p grid (no-op when already sized).
  /// connect() calls this itself; exposed for tests. Accepts any view
  /// (overlays never change track counts).
  void prepare(const tig::GridView& grid) {
    if (visited_h.size() != static_cast<std::size_t>(grid.num_h())) {
      visited_h.assign(static_cast<std::size_t>(grid.num_h()), VisitSlot{});
    }
    if (visited_v.size() != static_cast<std::size_t>(grid.num_v())) {
      visited_v.assign(static_cast<std::size_t>(grid.num_v()), VisitSlot{});
    }
  }

  /// Folds this workspace's arena high-water marks into the global
  /// registry (`levelb.arena_*` gauges, atomic-max across every workspace
  /// that reports — serial router, engine workers, committer fallback).
  /// Called once when the owner finishes a run, never per connect.
  void publish_arena_metrics() const {
    util::MetricsRegistry& reg = util::MetricsRegistry::global();
    reg.gauge("levelb.arena_high_water_bytes")
        .set_max(static_cast<long long>(arena.high_water_bytes()));
    reg.gauge("levelb.arena_reserved_bytes")
        .set_max(static_cast<long long>(arena.reserved_bytes()));
  }
};

}  // namespace ocr::levelb
