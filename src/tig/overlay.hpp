#pragma once
/// \file overlay.hpp
/// \brief GridOverlay: a sparse, copy-on-touch occupancy delta over an
/// immutable base TrackGrid.
///
/// The sharded engine's workers search the shared live grid, but each
/// must unblock its own net's terminal crossings first. The overlay holds
/// those private mutations without copying the grid: a *touched* track
/// gets a private IntervalSet copied from the base on first mutation, and
/// every other track reads the base grid's set. The overlay only picks
/// the set; GridView runs the occupancy queries over whichever set it
/// gets.
///
/// Identity argument: a touched track's IntervalSet is the base set with
/// the same block/unblock ops a full grid copy would have applied, and
/// GridView asks it the same IntervalSet queries the TrackGrid asks its
/// own sets. So (base + overlay) answers every query exactly as a mutated
/// deep copy would, bit for bit.
///
/// Thread contract: an overlay belongs to one thread. The base grid must
/// not be mutated while any overlay references it (the engine guarantees
/// that for the length of a batch); its const reads are pure, so any
/// number of overlays may share it.
///
/// Storage: the track→slot directories are chunked (64 tracks per chunk,
/// default slot -1), so an overlay over a 100k-track grid allocates
/// directory chunks only around the tracks it actually touches instead of
/// two dense int32 arrays sized to the whole grid per rebase. The private
/// IntervalSets live in a pool that survives rebase — steady-state reuse
/// recycles both the sets' run capacity and the directory chunks.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tig/track_grid.hpp"
#include "util/chunked.hpp"

namespace ocr::tig {

class GridOverlay {
 public:
  GridOverlay() = default;
  explicit GridOverlay(const TrackGrid* base) { rebase(base); }

  /// Drops every touched track and re-targets \p base (may be the same
  /// grid). O(touched tracks), not O(grid).
  void rebase(const TrackGrid* base);

  bool has_base() const { return base_ != nullptr; }
  const TrackGrid& base() const { return *base_; }

  /// Number of tracks with a private delta (observability/tests).
  std::size_t touched_tracks() const {
    return touched_h_.size() + touched_v_.size();
  }

  // ---- mutations (mirror TrackGrid's) ---------------------------------

  void block_h(int i, const geom::Interval& span);
  void block_v(int j, const geom::Interval& span);
  void unblock_h(int i, const geom::Interval& span);
  void unblock_v(int j, const geom::Interval& span);

  /// The effective blocked set of a track: the private delta when touched,
  /// the base's otherwise. GridView's occupancy queries read this.
  const geom::IntervalSet& h_blocked(int i) const {
    const std::int32_t slot = h_slot_.at(static_cast<std::size_t>(i));
    return slot < 0 ? base_->h_blocked(i)
                    : entries_[static_cast<std::size_t>(slot)];
  }
  const geom::IntervalSet& v_blocked(int j) const {
    const std::int32_t slot = v_slot_.at(static_cast<std::size_t>(j));
    return slot < 0 ? base_->v_blocked(j)
                    : entries_[static_cast<std::size_t>(slot)];
  }

 private:
  /// Index of track \p i's private set in entries_, materializing a copy
  /// of the base set on first touch.
  geom::IntervalSet& materialize_h(int i);
  geom::IntervalSet& materialize_v(int j);

  /// Pool slot holding a copy of \p src: recycles a set retired by an
  /// earlier rebase (keeping its run capacity) or grows the pool.
  std::int32_t acquire_entry(const geom::IntervalSet& src);

  const TrackGrid* base_ = nullptr;
  // track index -> entries_ index, -1 = untouched. Chunked: only the
  // directory chunks around touched tracks materialize.
  util::ChunkedVector<std::int32_t> h_slot_{-1};
  util::ChunkedVector<std::int32_t> v_slot_{-1};
  // Pool of private sets; [0, entries_used_) are live since the last
  // rebase, the rest are retired sets kept for their capacity.
  std::vector<geom::IntervalSet> entries_;
  std::size_t entries_used_ = 0;
  std::vector<std::int32_t> touched_h_;  // for O(touched) rebase
  std::vector<std::int32_t> touched_v_;
};

}  // namespace ocr::tig
