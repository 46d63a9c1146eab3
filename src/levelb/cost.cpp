#include "levelb/cost.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ocr::levelb {

namespace {

/// floor(a / b) for b > 0, also for negative a (query points left of or
/// below the index origin).
geom::Coord floor_div(geom::Coord a, geom::Coord b) {
  const geom::Coord q = a / b;
  return (a % b != 0 && a < 0) ? q - 1 : q;
}

}  // namespace

TerminalIndex::TerminalIndex(std::span<const geom::Point> points,
                             geom::Coord cell)
    : cell_(cell) {
  if (cell <= 0 || points.empty()) return;
  origin_ = points.front();
  for (const geom::Point& p : points) {
    origin_.x = std::min(origin_.x, p.x);
    origin_.y = std::min(origin_.y, p.y);
  }
  // Sort (row, col, position) triples; position breaks ties, so entries
  // are position-ascending within a cell.
  struct Keyed {
    geom::Coord row, col;
    std::size_t position;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    keyed.push_back(Keyed{(points[i].y - origin_.y) / cell,
                          (points[i].x - origin_.x) / cell, i});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.row != b.row) return a.row < b.row;
    if (a.col != b.col) return a.col < b.col;
    return a.position < b.position;
  });
  entries_.reserve(keyed.size());
  for (const Keyed& k : keyed) {
    if (keys_.empty() || keys_.back() != std::make_pair(k.row, k.col)) {
      keys_.emplace_back(k.row, k.col);
      starts_.push_back(entries_.size());
    }
    entries_.push_back(Entry{points[k.position], k.position});
  }
  starts_.push_back(entries_.size());
}

void TerminalIndex::collect(const geom::Point& p, geom::Coord radius,
                            std::size_t from,
                            std::vector<DupHit>& hits) const {
  if (keys_.empty()) return;
  const geom::Coord row = floor_div(p.y - origin_.y, cell_);
  const geom::Coord col = floor_div(p.x - origin_.x, cell_);
  for (geom::Coord r = row - 1; r <= row + 1; ++r) {
    auto it = std::lower_bound(keys_.begin(), keys_.end(),
                               std::make_pair(r, col - 1));
    for (; it != keys_.end() && it->first == r && it->second <= col + 1;
         ++it) {
      const std::size_t c = static_cast<std::size_t>(it - keys_.begin());
      for (std::size_t e = starts_[c]; e < starts_[c + 1]; ++e) {
        const Entry& entry = entries_[e];
        if (entry.position < from) continue;
        const geom::Coord d = geom::manhattan(p, entry.point);
        if (d < radius) hits.push_back(DupHit{entry.position, d});
      }
    }
  }
}

CostContext make_cost_context(const tig::GridView& grid,
                              double dup_radius_pitches,
                              double acf_window_pitches) {
  CostContext ctx;
  geom::Coord h_pitch = 1;
  geom::Coord v_pitch = 1;
  if (grid.num_h() > 1) {
    h_pitch = (grid.h_y(grid.num_h() - 1) - grid.h_y(0)) / (grid.num_h() - 1);
  }
  if (grid.num_v() > 1) {
    v_pitch = (grid.v_x(grid.num_v() - 1) - grid.v_x(0)) / (grid.num_v() - 1);
  }
  ctx.pitch = std::max<geom::Coord>(1, (h_pitch + v_pitch) / 2);
  ctx.dup_radius = static_cast<geom::Coord>(
      dup_radius_pitches * static_cast<double>(ctx.pitch));
  ctx.acf_window = static_cast<geom::Coord>(
      acf_window_pitches * static_cast<double>(ctx.pitch));
  return ctx;
}

double corner_drg(const tig::GridView& grid, const CostContext& ctx,
                  const geom::Point& p, int h, int v) {
  const auto dh = grid.h_distance_to_blocked(h, p.x);
  const auto dv = grid.v_distance_to_blocked(v, p.y);
  if (ctx.footprint != nullptr) {
    // "Nearest blockage at distance d" stays true unless something new
    // lands within d of the probe; with no blockage at all, any new block
    // on the track changes the answer.
    ctx.footprint->add_h(h, dh ? geom::Interval(p.x - *dh, p.x + *dh)
                               : grid.h_span());
    ctx.footprint->add_v(v, dv ? geom::Interval(p.y - *dv, p.y + *dv)
                               : grid.v_span());
  }
  geom::Coord d = -1;
  if (dh) d = *dh;
  if (dv) d = d < 0 ? *dv : std::min(d, *dv);
  if (d < 0) return 0.0;  // nothing routed anywhere near
  return 1.0 / (1.0 + static_cast<double>(d) /
                          static_cast<double>(ctx.pitch));
}

double corner_dup(const CostContext& ctx, const geom::Point& p) {
  if (ctx.dup_radius <= 0) return 0.0;
  const double radius = static_cast<double>(ctx.dup_radius);
  double total = 0.0;
  if (ctx.dup_index != nullptr) {
    // Floating-point addition is not associative: sum in flat-position
    // order so the total is bit-identical to a scan of the flat list.
    std::vector<DupHit>& hits = *ctx.dup_hits;
    hits.clear();
    ctx.dup_index->collect(p, ctx.dup_radius, ctx.dup_from, hits);
    std::sort(hits.begin(), hits.end(),
              [](const DupHit& a, const DupHit& b) {
                return a.position < b.position;
              });
    for (const DupHit& hit : hits) {
      total += 1.0 - static_cast<double>(hit.distance) / radius;
    }
  }
  for (const geom::Point& u : ctx.dup_own) {
    const geom::Coord d = geom::manhattan(p, u);
    if (d < ctx.dup_radius) total += 1.0 - static_cast<double>(d) / radius;
  }
  return std::min(total, 4.0);  // cap so one hub cannot dominate wl
}

double corner_acf(const tig::GridView& grid, const CostContext& ctx,
                  const geom::Point& p, int h, int v) {
  const geom::Interval hw(
      std::max(grid.h_span().lo, p.x - ctx.acf_window),
      std::min(grid.h_span().hi, p.x + ctx.acf_window));
  const geom::Interval vw(
      std::max(grid.v_span().lo, p.y - ctx.acf_window),
      std::min(grid.v_span().hi, p.y + ctx.acf_window));
  if (ctx.footprint != nullptr) {
    ctx.footprint->add_h(h, hw);
    ctx.footprint->add_v(v, vw);
  }
  return 0.5 * (grid.h_blocked_fraction(h, hw) +
                grid.v_blocked_fraction(v, vw));
}

double corner_cost(const tig::GridView& grid, const CostWeights& weights,
                   const CostContext& ctx, const geom::Point& p, int h,
                   int v) {
  return weights.w21 * corner_drg(grid, ctx, p, h, v) +
         weights.w22 * corner_dup(ctx, p) +
         weights.w23 * corner_acf(grid, ctx, p, h, v);
}

namespace {
/// Total overlap of \p span with the blocked runs of \p set, starting from
/// the first run that can reach span (binary search, not a front scan).
geom::Coord overlap_length(const geom::IntervalSet& set,
                           const geom::Interval& span) {
  const std::vector<geom::Interval>& runs = set.runs();
  auto it = std::lower_bound(runs.begin(), runs.end(), span.lo,
                             [](const geom::Interval& run, geom::Coord v) {
                               return run.hi < v;
                             });
  geom::Coord total = 0;
  for (; it != runs.end() && it->lo <= span.hi; ++it) {
    total += std::min(it->hi, span.hi) - std::max(it->lo, span.lo);
  }
  return total;
}
}  // namespace

geom::Coord SensitiveRuns::h_overlap(int track,
                                     const geom::Interval& span) const {
  const auto it = h_.find(track);
  return it == h_.end() ? 0 : overlap_length(it->second, span);
}

geom::Coord SensitiveRuns::v_overlap(int track,
                                     const geom::Interval& span) const {
  const auto it = v_.find(track);
  return it == v_.end() ? 0 : overlap_length(it->second, span);
}

double leg_parallel_cost(const tig::GridView& grid,
                         const CostWeights& weights, const CostContext& ctx,
                         const tig::TrackRef& track,
                         const geom::Interval& span) {
  if (weights.w24 == 0.0 || ctx.sensitive == nullptr ||
      ctx.sensitive->empty()) {
    return 0.0;
  }
  geom::Coord overlap = 0;
  if (track.orient == geom::Orientation::kHorizontal) {
    for (int i = track.index - 1; i <= track.index + 1; ++i) {
      if (i < 0 || i >= grid.num_h()) continue;
      overlap += ctx.sensitive->h_overlap(i, span);
    }
  } else {
    for (int j = track.index - 1; j <= track.index + 1; ++j) {
      if (j < 0 || j >= grid.num_v()) continue;
      overlap += ctx.sensitive->v_overlap(j, span);
    }
  }
  return weights.w24 * static_cast<double>(overlap) /
         static_cast<double>(ctx.pitch);
}

}  // namespace ocr::levelb
