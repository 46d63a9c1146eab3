#include "tig/track_grid.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ocr::tig {
namespace {

bool ascending_unique(const std::vector<geom::Coord>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] <= v[i - 1]) return false;
  }
  return true;
}

int nearest_index(const std::vector<geom::Coord>& coords, geom::Coord v) {
  OCR_ASSERT(!coords.empty(), "grid has no tracks in this orientation");
  const auto it = std::lower_bound(coords.begin(), coords.end(), v);
  if (it == coords.begin()) return 0;
  if (it == coords.end()) return static_cast<int>(coords.size()) - 1;
  const auto prev = std::prev(it);
  // Ties go to the lower track.
  if (v - *prev <= *it - v) return static_cast<int>(prev - coords.begin());
  return static_cast<int>(it - coords.begin());
}

}  // namespace

TrackGrid::TrackGrid(std::vector<geom::Coord> h_ys,
                     std::vector<geom::Coord> v_xs, const geom::Rect& extent)
    : h_ys_(std::move(h_ys)), v_xs_(std::move(v_xs)), extent_(extent) {
  OCR_ASSERT(!h_ys_.empty() && !v_xs_.empty(),
             "grid needs at least one track per orientation");
  OCR_ASSERT(ascending_unique(h_ys_) && ascending_unique(v_xs_),
             "track coordinates must be ascending and unique");
  OCR_ASSERT(h_ys_.front() >= extent_.ylo && h_ys_.back() <= extent_.yhi,
             "horizontal tracks must lie inside the extent");
  OCR_ASSERT(v_xs_.front() >= extent_.xlo && v_xs_.back() <= extent_.xhi,
             "vertical tracks must lie inside the extent");
  h_blocked_.reset(h_ys_.size());
  v_blocked_.reset(v_xs_.size());
}

TrackGrid TrackGrid::uniform(const geom::Rect& extent, geom::Coord h_pitch,
                             geom::Coord v_pitch) {
  OCR_ASSERT(h_pitch > 0 && v_pitch > 0, "pitches must be positive");
  std::vector<geom::Coord> ys;
  for (geom::Coord y = extent.ylo + h_pitch / 2; y <= extent.yhi;
       y += h_pitch) {
    ys.push_back(y);
  }
  std::vector<geom::Coord> xs;
  for (geom::Coord x = extent.xlo + v_pitch / 2; x <= extent.xhi;
       x += v_pitch) {
    xs.push_back(x);
  }
  OCR_ASSERT(!ys.empty() && !xs.empty(), "extent too small for the pitches");
  return TrackGrid(std::move(ys), std::move(xs), extent);
}

int TrackGrid::nearest_h(geom::Coord y) const {
  return nearest_index(h_ys_, y);
}

int TrackGrid::nearest_v(geom::Coord x) const {
  return nearest_index(v_xs_, x);
}

namespace {
int lower_index(const std::vector<geom::Coord>& coords, geom::Coord v) {
  return static_cast<int>(
      std::lower_bound(coords.begin(), coords.end(), v) - coords.begin());
}
}  // namespace

int TrackGrid::first_h_at_or_above(geom::Coord y) const {
  return lower_index(h_ys_, y);
}

int TrackGrid::first_v_at_or_above(geom::Coord x) const {
  return lower_index(v_xs_, x);
}

int TrackGrid::last_h_at_or_below(geom::Coord y) const {
  return lower_index(h_ys_, y + 1) - 1;
}

int TrackGrid::last_v_at_or_below(geom::Coord x) const {
  return lower_index(v_xs_, x + 1) - 1;
}

void TrackGrid::block_h(int i, const geom::Interval& span) {
  h_blocked_.touch(static_cast<std::size_t>(i)).add(span);
}

void TrackGrid::block_v(int j, const geom::Interval& span) {
  v_blocked_.touch(static_cast<std::size_t>(j)).add(span);
}

void TrackGrid::unblock_h(int i, const geom::Interval& span) {
  // An absent chunk means the track was never blocked — removing from an
  // empty set is a no-op, so skip the materialization entirely.
  if (auto* s = h_blocked_.find(static_cast<std::size_t>(i))) s->remove(span);
}

void TrackGrid::unblock_v(int j, const geom::Interval& span) {
  if (auto* s = v_blocked_.find(static_cast<std::size_t>(j))) s->remove(span);
}

void TrackGrid::block_region_h(const geom::Rect& region) {
  // Only the tracks whose coordinate falls inside the region can change;
  // binary-search the index range instead of scanning every track (a
  // 100k-track grid with thousands of obstacles cannot afford the scan).
  const int first = first_h_at_or_above(region.ylo);
  const int last = last_h_at_or_below(region.yhi);
  for (int i = first; i <= last; ++i) block_h(i, region.x_span());
}

void TrackGrid::block_region_v(const geom::Rect& region) {
  const int first = first_v_at_or_above(region.xlo);
  const int last = last_v_at_or_below(region.xhi);
  for (int j = first; j <= last; ++j) block_v(j, region.y_span());
}

bool TrackGrid::h_is_free(int i, const geom::Interval& span) const {
  return h_blocked(i).is_free(span);
}

bool TrackGrid::v_is_free(int j, const geom::Interval& span) const {
  return v_blocked(j).is_free(span);
}

std::optional<geom::Interval> TrackGrid::h_free_segment(
    int i, geom::Coord x) const {
  return h_blocked(i).free_gap_containing(h_span(), x);
}

std::optional<geom::Interval> TrackGrid::v_free_segment(
    int j, geom::Coord y) const {
  return v_blocked(j).free_gap_containing(v_span(), y);
}

bool TrackGrid::crossing_free(int i, int j) const {
  return !h_blocked(i).contains(v_x(j)) && !v_blocked(j).contains(h_y(i));
}

std::optional<geom::Coord> TrackGrid::h_distance_to_blocked(
    int i, geom::Coord x) const {
  return h_blocked(i).distance_to_nearest_blocked(x);
}

std::optional<geom::Coord> TrackGrid::v_distance_to_blocked(
    int j, geom::Coord y) const {
  return v_blocked(j).distance_to_nearest_blocked(y);
}

double TrackGrid::h_blocked_fraction(int i,
                                     const geom::Interval& span) const {
  return blocked_fraction_of(h_blocked(i), span);
}

double TrackGrid::v_blocked_fraction(int j,
                                     const geom::Interval& span) const {
  return blocked_fraction_of(v_blocked(j), span);
}

std::size_t TrackGrid::grid_bytes() const {
  std::size_t bytes = (h_ys_.capacity() + v_xs_.capacity()) *
                      sizeof(geom::Coord);
  bytes += h_blocked_.storage_bytes() + v_blocked_.storage_bytes();
  const auto add_runs = [&bytes](std::size_t, const geom::IntervalSet& s) {
    bytes += s.runs().capacity() * sizeof(geom::Interval);
  };
  h_blocked_.for_each_present(add_runs);
  v_blocked_.for_each_present(add_runs);
  return bytes;
}

double blocked_fraction_of(const geom::IntervalSet& blocked,
                           const geom::Interval& span) {
  if (span.length() == 0) return blocked.contains(span.lo) ? 1.0 : 0.0;
  geom::Coord covered = 0;
  const std::vector<geom::Interval>& runs = blocked.runs();
  // Binary-search the first run reaching span.lo; runs before it cannot
  // overlap, so congested tracks don't degrade to a full scan.
  auto it = std::lower_bound(runs.begin(), runs.end(), span.lo,
                             [](const geom::Interval& run, geom::Coord v) {
                               return run.hi < v;
                             });
  for (; it != runs.end() && it->lo <= span.hi; ++it) {
    covered += std::min(it->hi, span.hi) - std::max(it->lo, span.lo);
  }
  return static_cast<double>(covered) / static_cast<double>(span.length());
}

}  // namespace ocr::tig
