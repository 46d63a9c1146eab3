#pragma once
/// \file grid_view.hpp
/// \brief GridView: a two-pointer value type giving the level-B search a
/// single read surface over either a plain TrackGrid or a TrackGrid seen
/// through a GridOverlay.
///
/// The serial router searches a mutable grid; an engine worker searches an
/// immutable snapshot plus its private overlay (commit deltas + terminal
/// braces). Both call the same MBFS/cost code, so that code takes a
/// GridView: geometry queries always come from the base grid (overlays
/// never change geometry). For occupancy the view only picks which
/// blocked set to read — the overlay's when present, the grid's otherwise
/// — and asks it the same IntervalSet query TrackGrid does, so both
/// surfaces answer bit-identically. GridView converts implicitly from
/// `const TrackGrid&`, so every pre-overlay call site compiles unchanged.
///
/// A view is two pointers — pass it by value. It does not own anything;
/// both targets must outlive it.

#include <optional>
#include <vector>

#include "tig/overlay.hpp"
#include "tig/track_grid.hpp"

namespace ocr::tig {

class GridView {
 public:
  // Implicit by design: serial callers keep passing a TrackGrid.
  GridView(const TrackGrid& grid) : grid_(&grid) {}
  GridView(const GridOverlay& overlay)
      : grid_(&overlay.base()), overlay_(&overlay) {}

  /// The base grid (geometry source; occupancy of untouched tracks).
  const TrackGrid& base() const { return *grid_; }
  bool has_overlay() const { return overlay_ != nullptr; }

  // ---- geometry (overlay-independent) ---------------------------------

  int num_h() const { return grid_->num_h(); }
  int num_v() const { return grid_->num_v(); }
  const geom::Rect& extent() const { return grid_->extent(); }
  geom::Coord h_y(int i) const { return grid_->h_y(i); }
  geom::Coord v_x(int j) const { return grid_->v_x(j); }
  int nearest_h(geom::Coord y) const { return grid_->nearest_h(y); }
  int nearest_v(geom::Coord x) const { return grid_->nearest_v(x); }
  const std::vector<geom::Coord>& h_ys() const { return grid_->h_ys(); }
  const std::vector<geom::Coord>& v_xs() const { return grid_->v_xs(); }
  geom::Point crossing(int i, int j) const { return grid_->crossing(i, j); }
  geom::Interval h_span() const { return grid_->h_span(); }
  geom::Interval v_span() const { return grid_->v_span(); }

  // ---- occupancy (read from the overlay's set when present) ----------

  const geom::IntervalSet& h_blocked(int i) const {
    return overlay_ != nullptr ? overlay_->h_blocked(i) : grid_->h_blocked(i);
  }
  const geom::IntervalSet& v_blocked(int j) const {
    return overlay_ != nullptr ? overlay_->v_blocked(j) : grid_->v_blocked(j);
  }

  bool h_is_free(int i, const geom::Interval& span) const {
    return h_blocked(i).is_free(span);
  }
  bool v_is_free(int j, const geom::Interval& span) const {
    return v_blocked(j).is_free(span);
  }

  std::optional<geom::Interval> h_free_segment(int i, geom::Coord x) const {
    return h_blocked(i).free_gap_containing(h_span(), x);
  }
  std::optional<geom::Interval> v_free_segment(int j, geom::Coord y) const {
    return v_blocked(j).free_gap_containing(v_span(), y);
  }

  bool crossing_free(int i, int j) const {
    return !h_blocked(i).contains(v_x(j)) && !v_blocked(j).contains(h_y(i));
  }

  std::optional<geom::Coord> h_distance_to_blocked(int i,
                                                   geom::Coord x) const {
    return h_blocked(i).distance_to_nearest_blocked(x);
  }
  std::optional<geom::Coord> v_distance_to_blocked(int j,
                                                   geom::Coord y) const {
    return v_blocked(j).distance_to_nearest_blocked(y);
  }

  double h_blocked_fraction(int i, const geom::Interval& span) const {
    return blocked_fraction_of(h_blocked(i), span);
  }
  double v_blocked_fraction(int j, const geom::Interval& span) const {
    return blocked_fraction_of(v_blocked(j), span);
  }

 private:
  const TrackGrid* grid_;
  const GridOverlay* overlay_ = nullptr;
};

}  // namespace ocr::tig
