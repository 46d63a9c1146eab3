#include "plan_check.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <tuple>
#include <unordered_map>

namespace routebench {
namespace {

using ocr::geom::Coord;
using ocr::geom::Orientation;
using ocr::geom::Point;
using ocr::levelb::NetResult;
using ocr::levelb::Path;

/// One occupied closed extent [lo, hi] of a track, owned by a net.
struct Extent {
  Orientation orient = Orientation::kHorizontal;
  int track = 0;
  Coord lo = 0;
  Coord hi = 0;
  int net = 0;
};

class Report {
 public:
  explicit Report(std::size_t max_reported) : max_(max_reported) {}
  void add(std::string line) {
    if (lines_.size() < max_) lines_.push_back(std::move(line));
  }
  std::vector<std::string> take() { return std::move(lines_); }

 private:
  std::size_t max_;
  std::vector<std::string> lines_;
};

std::string where(int net, std::size_t path, std::size_t leg) {
  return "net " + std::to_string(net) + " path " + std::to_string(path) +
         " leg " + std::to_string(leg) + ": ";
}

/// Index of the track at exactly \p coord in ascending \p coords, or -1.
int track_at(const std::vector<Coord>& coords, Coord coord) {
  const auto it = std::lower_bound(coords.begin(), coords.end(), coord);
  if (it == coords.end() || *it != coord) return -1;
  return static_cast<int>(it - coords.begin());
}

bool on_leg(const Point& p, const Point& a, const Point& b) {
  return std::min(a.x, b.x) <= p.x && p.x <= std::max(a.x, b.x) &&
         std::min(a.y, b.y) <= p.y && p.y <= std::max(a.y, b.y);
}

bool on_path(const Point& p, const Path& path) {
  if (path.points.size() == 1) return path.points[0] == p;
  for (std::size_t i = 0; i + 1 < path.points.size(); ++i) {
    if (on_leg(p, path.points[i], path.points[i + 1])) return true;
  }
  return false;
}

struct UnionFind {
  std::vector<std::size_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
};

/// Terminals and paths of one net in one union-find; true when every
/// terminal ends up in the same component.
bool terminals_connected(const std::vector<Point>& terminals,
                         const std::vector<Path>& paths) {
  const std::size_t t = terminals.size();
  UnionFind uf(t + paths.size());
  for (std::size_t p = 0; p < paths.size(); ++p) {
    for (std::size_t i = 0; i < t; ++i) {
      if (on_path(terminals[i], paths[p])) uf.unite(i, t + p);
    }
    if (paths[p].points.empty()) continue;
    for (std::size_t q = 0; q < paths.size(); ++q) {
      if (q == p) continue;
      if (on_path(paths[p].points.front(), paths[q]) ||
          on_path(paths[p].points.back(), paths[q])) {
        uf.unite(t + p, t + q);
      }
    }
  }
  for (std::size_t i = 1; i < t; ++i) {
    if (uf.find(i) != uf.find(0)) return false;
  }
  return true;
}

}  // namespace

std::vector<std::string> check_plan(const ocr::tig::TrackGrid& pristine,
                                    const std::vector<ocr::levelb::BNet>& nets,
                                    const ocr::levelb::LevelBResult& result,
                                    std::size_t max_reported) {
  Report report(max_reported);

  std::vector<Coord> h_ys(static_cast<std::size_t>(pristine.num_h()));
  for (int i = 0; i < pristine.num_h(); ++i) h_ys[i] = pristine.h_y(i);
  std::vector<Coord> v_xs(static_cast<std::size_t>(pristine.num_v()));
  for (int j = 0; j < pristine.num_v(); ++j) v_xs[j] = pristine.v_x(j);

  ocr::tig::TrackGrid scratch = pristine;
  const std::vector<std::vector<Point>> snapped =
      ocr::levelb::snap_and_reserve_terminals(scratch, nets);
  std::unordered_map<int, std::size_t> index_of;
  for (std::size_t n = 0; n < nets.size(); ++n) index_of[nets[n].id] = n;

  if (result.nets.size() != nets.size()) {
    report.add("result has " + std::to_string(result.nets.size()) +
               " nets, input has " + std::to_string(nets.size()));
  }
  std::vector<char> seen(nets.size(), 0);
  std::vector<Extent> extents;
  long long total_length = 0;
  long long total_corners = 0;
  int complete = 0;

  for (const NetResult& net : result.nets) {
    const auto found = index_of.find(net.id);
    if (found == index_of.end() || seen[found->second]) {
      report.add("net " + std::to_string(net.id) +
                 " is unknown or reported twice");
      continue;
    }
    seen[found->second] = 1;
    long long length = 0;
    long long corners = 0;
    for (std::size_t p = 0; p < net.paths.size(); ++p) {
      const Path& path = net.paths[p];
      if (path.points.size() < 2) continue;
      if (path.tracks.size() + 1 != path.points.size()) {
        report.add(where(net.id, p, 0) + "leg and track counts differ");
        continue;
      }
      int prev_orient = -1;
      for (std::size_t l = 0; l + 1 < path.points.size(); ++l) {
        const Point a = path.points[l];
        const Point b = path.points[l + 1];
        if (a == b) continue;
        const bool horizontal = a.y == b.y;
        if (!horizontal && a.x != b.x) {
          report.add(where(net.id, p, l) + "not axis-parallel");
          continue;
        }
        const int orient = horizontal ? 0 : 1;
        if (prev_orient >= 0 && prev_orient != orient) ++corners;
        prev_orient = orient;
        length += std::llabs(b.x - a.x) + std::llabs(b.y - a.y);

        const int track = horizontal ? track_at(h_ys, a.y) : track_at(v_xs, a.x);
        const Orientation o =
            horizontal ? Orientation::kHorizontal : Orientation::kVertical;
        if (track < 0) {
          report.add(where(net.id, p, l) + "rides no track of the grid");
          continue;
        }
        if (path.tracks[l].orient != o || path.tracks[l].index != track) {
          report.add(where(net.id, p, l) + "claims another track");
        }
        const ocr::geom::Interval span =
            horizontal ? ocr::geom::Interval(std::min(a.x, b.x), std::max(a.x, b.x))
                       : ocr::geom::Interval(std::min(a.y, b.y), std::max(a.y, b.y));
        const ocr::geom::Interval limits =
            horizontal ? pristine.h_span() : pristine.v_span();
        if (span.lo < limits.lo || span.hi > limits.hi) {
          report.add(where(net.id, p, l) + "leaves the routing area");
        }
        const ocr::geom::IntervalSet& blocked =
            horizontal ? pristine.h_blocked(track) : pristine.v_blocked(track);
        if (blocked.intersects(span)) {
          report.add(where(net.id, p, l) + "crosses a pristine obstacle");
        }
        extents.push_back(Extent{o, track, span.lo, span.hi, net.id});
      }
    }
    if (length != net.wire_length || corners != net.corners) {
      report.add("net " + std::to_string(net.id) + ": recomputed length " +
                 std::to_string(length) + " / corners " +
                 std::to_string(corners) + ", reported " +
                 std::to_string(net.wire_length) + " / " +
                 std::to_string(net.corners));
    }
    total_length += length;
    total_corners += corners;
    if (!net.complete) continue;
    ++complete;
    std::vector<Point> terminals = snapped[found->second];
    std::sort(terminals.begin(), terminals.end());
    terminals.erase(std::unique(terminals.begin(), terminals.end()),
                    terminals.end());
    if (terminals.size() >= 2 && !terminals_connected(terminals, net.paths)) {
      report.add("net " + std::to_string(net.id) +
                 " is complete but its terminals are not connected");
    }
  }
  if (total_length != result.total_wire_length ||
      total_corners != result.total_corners) {
    report.add("recomputed totals " + std::to_string(total_length) + " / " +
               std::to_string(total_corners) + " differ from reported " +
               std::to_string(result.total_wire_length) + " / " +
               std::to_string(result.total_corners));
  }
  if (complete != result.routed_nets ||
      static_cast<int>(result.nets.size()) - complete != result.failed_nets) {
    report.add("routed/failed counts do not match the per-net results");
  }

  // Every terminal crossing belongs to its net on both of its tracks.
  for (std::size_t n = 0; n < nets.size(); ++n) {
    for (const Point& t : snapped[n]) {
      const int i = track_at(h_ys, t.y);
      const int j = track_at(v_xs, t.x);
      if (i >= 0) extents.push_back({Orientation::kHorizontal, i, t.x, t.x, nets[n].id});
      if (j >= 0) extents.push_back({Orientation::kVertical, j, t.y, t.y, nets[n].id});
    }
  }
  // Merge each net's own extents per track (a net may reuse its own
  // wire), then any remaining overlap on a track is between two nets.
  std::sort(extents.begin(), extents.end(), [](const Extent& a, const Extent& b) {
    return std::tie(a.orient, a.track, a.net, a.lo) <
           std::tie(b.orient, b.track, b.net, b.lo);
  });
  std::vector<Extent> merged;
  for (const Extent& e : extents) {
    if (!merged.empty()) {
      Extent& last = merged.back();
      if (last.orient == e.orient && last.track == e.track &&
          last.net == e.net && e.lo <= last.hi) {
        last.hi = std::max(last.hi, e.hi);
        continue;
      }
    }
    merged.push_back(e);
  }
  std::sort(merged.begin(), merged.end(), [](const Extent& a, const Extent& b) {
    return std::tie(a.orient, a.track, a.lo) < std::tie(b.orient, b.track, b.lo);
  });
  for (std::size_t k = 1; k < merged.size(); ++k) {
    const Extent& a = merged[k - 1];
    const Extent& b = merged[k];
    if (a.orient == b.orient && a.track == b.track && b.lo <= a.hi) {
      report.add(std::string(a.orient == Orientation::kHorizontal ? "h" : "v") +
                 "-track " + std::to_string(a.track) + ": nets " +
                 std::to_string(a.net) + " and " + std::to_string(b.net) +
                 " share [" + std::to_string(b.lo) + ", " +
                 std::to_string(std::min(a.hi, b.hi)) + "]");
    }
  }
  return report.take();
}

}  // namespace routebench
