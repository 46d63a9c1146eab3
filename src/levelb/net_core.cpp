#include "levelb/net_core.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>

#include "geom/rect.hpp"
#include "levelb/workspace.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace ocr::levelb {
namespace {

using geom::Coord;
using geom::Interval;
using geom::Orientation;
using geom::Point;

/// Half-perimeter of a net's terminal bounding box — the paper's
/// "longest distance" ordering key.
Coord net_extent(const BNet& net) {
  if (net.terminals.empty()) return 0;
  const geom::Rect box = geom::bounding_box(net.terminals);
  return box.width() + box.height();
}

/// A routed leg of the current net, used for closest-point attachment.
struct GeomLeg {
  tig::TrackRef track;
  Coord fixed = 0;      ///< the track's coordinate (y for H, x for V)
  Interval extent;      ///< varying-coordinate extent
};

Coord leg_distance(const GeomLeg& leg, const Point& p) {
  if (leg.track.orient == Orientation::kHorizontal) {
    const Coord x = std::clamp(p.x, leg.extent.lo, leg.extent.hi);
    return geom::manhattan(p, Point{x, leg.fixed});
  }
  const Coord y = std::clamp(p.y, leg.extent.lo, leg.extent.hi);
  return geom::manhattan(p, Point{leg.fixed, y});
}

/// Closest grid crossing on \p leg to \p p. Legs start and end at
/// crossings, so a valid crossing always exists within the extent.
Point leg_closest_crossing(const tig::GridView& grid, const GeomLeg& leg,
                           const Point& p) {
  if (leg.track.orient == Orientation::kHorizontal) {
    const Coord clamped = std::clamp(p.x, leg.extent.lo, leg.extent.hi);
    Coord x = grid.v_x(grid.nearest_v(clamped));
    if (x < leg.extent.lo || x > leg.extent.hi) {
      // Snapped off the leg (short leg): fall back to the nearer endpoint.
      x = (std::abs(p.x - leg.extent.lo) <= std::abs(p.x - leg.extent.hi))
              ? leg.extent.lo
              : leg.extent.hi;
    }
    return Point{x, leg.fixed};
  }
  const Coord clamped = std::clamp(p.y, leg.extent.lo, leg.extent.hi);
  Coord y = grid.h_y(grid.nearest_h(clamped));
  if (y < leg.extent.lo || y > leg.extent.hi) {
    y = (std::abs(p.y - leg.extent.lo) <= std::abs(p.y - leg.extent.hi))
            ? leg.extent.lo
            : leg.extent.hi;
  }
  return Point{leg.fixed, y};
}

void block_terminals(tig::TrackGrid& grid, const std::vector<Point>& pts) {
  for (const Point& p : pts) block_terminal(grid, p);
}

void unblock_terminals(tig::TrackGrid& grid, const std::vector<Point>& pts) {
  for (const Point& p : pts) unblock_terminal(grid, p);
}

/// One rip-up round over the failed nets; returns the number of failed
/// nets it completed. See LevelBOptions::ripup_rounds.
int ripup_round(tig::TrackGrid& grid, const LevelBOptions& options,
                const std::vector<BNet>& nets,
                const std::vector<std::vector<Point>>& snapped,
                std::vector<NetResult>& results,
                std::vector<std::vector<Committed>>& committed,
                SearchStats& stats, SearchWorkspace* workspace) {
  int recovered = 0;
  for (std::size_t f = 0; f < results.size(); ++f) {
    if (results[f].complete || snapped[f].size() < 2) continue;
    if (options.finder.cancel.cancelled()) break;
    const geom::Rect window =
        geom::bounding_box(snapped[f]).inflated(8 * 10);

    // Victim candidates: complete nets with wiring inside the failed
    // net's window, cheapest wiring first.
    std::vector<std::size_t> victims;
    for (std::size_t v = 0; v < results.size(); ++v) {
      if (v == f || !results[v].complete || committed[v].empty()) continue;
      if (nets[v].sensitive) continue;  // never rip up sensitive wiring
      bool overlaps_window = false;
      for (const Committed& c : committed[v]) {
        const geom::Rect leg_box =
            c.track.orient == Orientation::kHorizontal
                ? geom::Rect(c.extent.lo, grid.h_y(c.track.index),
                             c.extent.hi, grid.h_y(c.track.index))
                : geom::Rect(grid.v_x(c.track.index), c.extent.lo,
                             grid.v_x(c.track.index), c.extent.hi);
        if (leg_box.overlaps(window)) {
          overlaps_window = true;
          break;
        }
      }
      if (overlaps_window) victims.push_back(v);
    }
    std::stable_sort(victims.begin(), victims.end(),
                     [&results](std::size_t a, std::size_t b) {
                       return results[a].wire_length <
                              results[b].wire_length;
                     });

    constexpr std::size_t kMaxVictims = 4;
    for (std::size_t vi = 0;
         vi < victims.size() && vi < kMaxVictims && !results[f].complete;
         ++vi) {
      const std::size_t v = victims[vi];
      // Rip up the victim and the failed net's stale partial wiring, then
      // retry the failed net. The victim's terminal via sites stay
      // reserved so the retry cannot bury them.
      uncommit_extents(grid, committed[v]);
      uncommit_extents(grid, committed[f]);
      block_terminals(grid, snapped[v]);
      unblock_terminals(grid, snapped[f]);
      std::vector<Committed> f_new;
      NetResult f_result = route_single_net(
          grid, options,
          NetRouteRequest{nets[f].id, &snapped[f], nullptr, 0, nullptr},
          f_new, stats, nullptr, workspace);
      block_terminals(grid, snapped[f]);

      if (!f_result.complete) {
        // No help; restore both untouched.
        commit_extents(grid, committed[f]);
        commit_extents(grid, committed[v]);
        continue;
      }
      commit_extents(grid, f_new);
      // Reroute the victim around the new wiring.
      unblock_terminals(grid, snapped[v]);
      std::vector<Committed> v_new;
      NetResult v_result = route_single_net(
          grid, options,
          NetRouteRequest{nets[v].id, &snapped[v], nullptr, 0, nullptr},
          v_new, stats, nullptr, workspace);
      block_terminals(grid, snapped[v]);
      if (v_result.complete) {
        commit_extents(grid, v_new);
        committed[f] = std::move(f_new);
        committed[v] = std::move(v_new);
        results[f] = std::move(f_result);
        results[v] = std::move(v_result);
        ++recovered;
      } else {
        // Swap failed: undo everything, restore both nets' old wiring.
        uncommit_extents(grid, f_new);
        commit_extents(grid, committed[f]);
        commit_extents(grid, committed[v]);
      }
    }
  }
  return recovered;
}

}  // namespace

std::vector<std::size_t> order_nets(const std::vector<BNet>& nets,
                                    NetOrdering ordering) {
  std::vector<std::size_t> order(nets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  switch (ordering) {
    case NetOrdering::kAsGiven:
      break;
    case NetOrdering::kLongestFirst:
      std::stable_sort(order.begin(), order.end(),
                       [&nets](std::size_t a, std::size_t b) {
                         return net_extent(nets[a]) > net_extent(nets[b]);
                       });
      break;
    case NetOrdering::kShortestFirst:
      std::stable_sort(order.begin(), order.end(),
                       [&nets](std::size_t a, std::size_t b) {
                         return net_extent(nets[a]) < net_extent(nets[b]);
                       });
      break;
  }
  return order;
}

std::vector<std::vector<Point>> snap_and_reserve_terminals(
    tig::TrackGrid& grid, const std::vector<BNet>& nets) {
  // Snap every terminal to a grid crossing, collision-aware: the routing
  // grid is coarser than the pin pitch (metal3/4 rules), so distinct
  // terminals of *different* nets can land on the same crossing. Probe the
  // neighbouring crossings for a free one before accepting a collision.
  std::map<std::pair<Coord, Coord>, std::size_t> taken;  // crossing -> net
  std::vector<std::vector<Point>> snapped(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    for (const Point& t : nets[i].terminals) {
      const int ci = grid.nearest_h(t.y);
      const int cj = grid.nearest_v(t.x);
      // Nearest crossing in the 3x3 neighbourhood not taken by a
      // *different* net; fall back to the nearest crossing when the whole
      // neighbourhood is contested.
      Point chosen = grid.crossing(ci, cj);
      Coord chosen_dist = std::numeric_limits<Coord>::max();
      for (int di = -1; di <= 1; ++di) {
        for (int dj = -1; dj <= 1; ++dj) {
          const int ni = ci + di;
          const int nj = cj + dj;
          if (ni < 0 || ni >= grid.num_h() || nj < 0 ||
              nj >= grid.num_v()) {
            continue;
          }
          const Point p = grid.crossing(ni, nj);
          const auto it = taken.find({p.x, p.y});
          if (it != taken.end() && it->second != i) continue;
          // Crossings already blocked in the grid (obstacles, or via sites
          // committed by a previous route() call) are not usable either.
          if (it == taken.end() && !grid.crossing_free(ni, nj)) continue;
          const Coord d = geom::manhattan(p, t);
          if (d < chosen_dist) {
            chosen = p;
            chosen_dist = d;
          }
        }
      }
      taken.emplace(std::make_pair(chosen.x, chosen.y), i);
      snapped[i].push_back(chosen);
    }
  }

  // Reserve every terminal crossing up front: terminals are the only legal
  // inter-layer connection sites (§2), so no net may wire across another
  // net's future via site. Each net's own terminals are released while it
  // routes and restored afterwards.
  for (const auto& pts : snapped) {
    for (const Point& p : pts) block_terminal(grid, p);
  }
  return snapped;
}

void block_terminal(tig::TrackGrid& grid, const Point& p) {
  grid.block_h(grid.nearest_h(p.y), Interval(p.x, p.x));
  grid.block_v(grid.nearest_v(p.x), Interval(p.y, p.y));
}

void unblock_terminal(tig::TrackGrid& grid, const Point& p) {
  grid.unblock_h(grid.nearest_h(p.y), Interval(p.x, p.x));
  grid.unblock_v(grid.nearest_v(p.x), Interval(p.y, p.y));
}

void block_terminal(tig::GridOverlay& overlay, const Point& p) {
  const tig::TrackGrid& base = overlay.base();
  overlay.block_h(base.nearest_h(p.y), Interval(p.x, p.x));
  overlay.block_v(base.nearest_v(p.x), Interval(p.y, p.y));
}

void unblock_terminal(tig::GridOverlay& overlay, const Point& p) {
  const tig::TrackGrid& base = overlay.base();
  overlay.unblock_h(base.nearest_h(p.y), Interval(p.x, p.x));
  overlay.unblock_v(base.nearest_v(p.x), Interval(p.y, p.y));
}

void commit_extents(tig::TrackGrid& grid,
                    const std::vector<Committed>& extents) {
  for (const Committed& c : extents) {
    if (c.track.orient == Orientation::kHorizontal) {
      grid.block_h(c.track.index, c.extent);
    } else {
      grid.block_v(c.track.index, c.extent);
    }
  }
}

void uncommit_extents(tig::TrackGrid& grid,
                      const std::vector<Committed>& extents) {
  for (const Committed& c : extents) {
    if (c.track.orient == Orientation::kHorizontal) {
      grid.unblock_h(c.track.index, c.extent);
    } else {
      grid.unblock_v(c.track.index, c.extent);
    }
  }
}

NetResult route_single_net(tig::GridView grid,
                           const LevelBOptions& options,
                           const NetRouteRequest& request,
                           std::vector<Committed>& committed,
                           SearchStats& stats,
                           SearchFootprint* footprint,
                           SearchWorkspace* workspace) {
  SearchWorkspace local_ws;  // empty until a search actually runs
  SearchWorkspace& ws = workspace != nullptr ? *workspace : local_ws;

  NetResult result;
  result.id = request.net_id;

  // Drop duplicate terminals (coincident after snapping).
  std::vector<Point> terminals;
  for (const Point& snapped : *request.terminals) {
    if (std::find(terminals.begin(), terminals.end(), snapped) ==
        terminals.end()) {
      terminals.push_back(snapped);
    }
  }
  if (terminals.size() < 2) {
    result.complete = true;
    return result;
  }

  // Test-harness fault: fail every connection of a targeted net. Keyed by
  // net id so it fires identically in batch, serial-recompute and rip-up
  // routing of the same net at any thread count.
  if (OCR_FAULT_KEY("levelb.connect", request.net_id)) {
    result.complete = false;
    result.outcome = util::StatusKind::kFaultInjected;
    result.failed_connections = static_cast<int>(terminals.size()) - 1;
    return result;
  }

  PathFinder finder(grid, options.finder);
  long long net_vertices = 0;  // spent against net_vertex_budget

  std::vector<bool> attached(terminals.size(), false);
  attached[0] = true;
  std::vector<GeomLeg> legs;        // routed geometry of this net
  std::vector<Point> anchor{terminals[0]};  // attached terminal points
  std::size_t remaining = terminals.size() - 1;
  bool aborted = false;  // cancel or budget: stop routing this net

  while (remaining > 0 && !aborted) {
    if (options.finder.cancel.cancelled()) {
      result.outcome = util::StatusKind::kCancelled;
      break;
    }
    if (options.net_vertex_budget > 0 &&
        net_vertices >= options.net_vertex_budget) {
      result.outcome = util::StatusKind::kBudgetExhausted;
      break;
    }
    // Modified Prim (§3.3): the next terminal is the unattached one
    // closest to the net's routed geometry (terminals or Steiner points).
    std::size_t pick = terminals.size();
    Coord pick_dist = std::numeric_limits<Coord>::max();
    for (std::size_t t = 0; t < terminals.size(); ++t) {
      if (attached[t]) continue;
      Coord d = std::numeric_limits<Coord>::max();
      for (const Point& p : anchor) {
        d = std::min(d, geom::manhattan(terminals[t], p));
      }
      for (const GeomLeg& leg : legs) {
        d = std::min(d, leg_distance(leg, terminals[t]));
      }
      if (d < pick_dist) {
        pick_dist = d;
        pick = t;
      }
    }
    OCR_ASSERT(pick < terminals.size(), "no unattached terminal found");
    const Point source = terminals[pick];

    // Attachment targets, nearest first: closest crossing on each routed
    // leg, then attached terminals.
    std::vector<Point>& targets = ws.targets;
    targets.clear();
    for (const GeomLeg& leg : legs) {
      targets.push_back(leg_closest_crossing(grid, leg, source));
    }
    for (const Point& p : anchor) targets.push_back(p);
    std::stable_sort(targets.begin(), targets.end(),
                     [&source](const Point& a, const Point& b) {
                       return geom::manhattan(source, a) <
                              geom::manhattan(source, b);
                     });
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());

    // The dup cost term sees later nets' terminals (through the route's
    // index) plus this net's still-unattached ones.
    std::vector<Point>& dup_points = ws.dup_points;
    dup_points.clear();
    for (std::size_t t = 0; t < terminals.size(); ++t) {
      if (!attached[t] && t != pick) dup_points.push_back(terminals[t]);
    }
    CostContext ctx = make_cost_context(grid, options.dup_radius_pitches,
                                        options.acf_window_pitches);
    if (request.unrouted != nullptr) {
      ctx.dup_index = &request.unrouted->index();
      ctx.dup_from = request.unrouted->suffix_begin(request.position);
      OCR_ASSERT(ctx.dup_radius <= ctx.dup_index->cell(),
                 "dup radius exceeds the terminal index's cell side");
    }
    ctx.dup_own = dup_points;
    ctx.dup_hits = &ws.dup_hits;
    ctx.sensitive = request.sensitive;
    ctx.footprint = footprint;

    bool connected = false;
    for (const Point& target : targets) {
      PathFinder::Result found;
      if (options.net_vertex_budget > 0) {
        // Cap this connect at the net's remaining budget (tightened by any
        // per-connect budget already configured). Remaining budget is a
        // pure function of the expansions so far, so the stop point is the
        // same at any thread count.
        const long long left = options.net_vertex_budget - net_vertices;
        PathFinderOptions capped = options.finder;
        capped.vertex_budget = capped.vertex_budget > 0
                                   ? std::min(capped.vertex_budget, left)
                                   : left;
        found = PathFinder(grid, capped).connect(source, target, ctx, ws);
      } else {
        found = finder.connect(source, target, ctx, ws);
      }
      stats.vertices_examined += found.stats.vertices_examined;
      stats.window_growths += found.stats.window_growths;
      stats.candidates += found.stats.candidates;
      net_vertices += found.stats.vertices_examined;
      if (found.cancelled) {
        result.outcome = util::StatusKind::kCancelled;
        aborted = true;
        break;
      }
      if (found.budget_exhausted && options.net_vertex_budget > 0 &&
          net_vertices >= options.net_vertex_budget) {
        result.outcome = util::StatusKind::kBudgetExhausted;
        aborted = true;
        break;
      }
      if (!found.found) continue;
      connected = true;
      if (!found.path.empty()) {
        for (std::size_t leg = 0; leg + 1 < found.path.points.size();
             ++leg) {
          const Point& p = found.path.points[leg];
          const Point& q = found.path.points[leg + 1];
          const tig::TrackRef& track = found.path.tracks[leg];
          GeomLeg g;
          g.track = track;
          if (track.orient == Orientation::kHorizontal) {
            g.fixed = p.y;
            g.extent = Interval(std::min(p.x, q.x), std::max(p.x, q.x));
          } else {
            g.fixed = p.x;
            g.extent = Interval(std::min(p.y, q.y), std::max(p.y, q.y));
          }
          legs.push_back(g);
        }
        result.wire_length += found.path.length();
        result.corners += found.path.corners();
        result.paths.push_back(found.path);
      }
      break;
    }
    if (!connected) {
      ++result.failed_connections;
      if (util::log_level() <= util::LogLevel::kDebug) {
        const int si = grid.nearest_h(source.y);
        const int sj = grid.nearest_v(source.x);
        const auto hgap = grid.h_free_segment(si, source.x);
        const auto vgap = grid.v_free_segment(sj, source.y);
        std::ostringstream diag;
        diag << "level B: net " << request.net_id << " failed at ("
             << source.x << "," << source.y
             << ") targets=" << targets.size() << " hgap=";
        if (hgap) {
          diag << "[" << hgap->lo << "," << hgap->hi << "]";
        } else {
          diag << "none";
        }
        diag << " vgap=";
        if (vgap) {
          diag << "[" << vgap->lo << "," << vgap->hi << "]";
        } else {
          diag << "none";
        }
        if (!targets.empty()) {
          diag << " t0=(" << targets[0].x << "," << targets[0].y << ")";
        }
        OCR_DEBUG() << diag.str();
      }
    } else {
      // Only successfully attached terminals join the tree; a failed
      // terminal must not become an (electrically floating) target.
      anchor.push_back(source);
    }
    attached[pick] = true;  // do not retry; count the failure
    --remaining;
  }

  // Connections never attempted (cancel/budget stop) count as failed.
  result.failed_connections += static_cast<int>(remaining);
  result.complete = result.failed_connections == 0;
  if (!result.complete && result.outcome == util::StatusKind::kOk) {
    result.outcome = util::StatusKind::kUnroutable;
  }
  for (const GeomLeg& leg : legs) {
    committed.push_back(Committed{leg.track, leg.extent});
  }
  return result;
}

int run_ripup_rounds(tig::TrackGrid& grid, const LevelBOptions& options,
                     const std::vector<BNet>& nets_in_order,
                     const std::vector<std::vector<Point>>& snapped,
                     std::vector<NetResult>& results,
                     std::vector<std::vector<Committed>>& committed,
                     SearchStats& stats, SearchWorkspace* workspace) {
  int recovered = 0;
  for (int round = 0; round < options.ripup_rounds; ++round) {
    if (options.finder.cancel.cancelled()) break;
    const int round_recovered =
        ripup_round(grid, options, nets_in_order, snapped, results,
                    committed, stats, workspace);
    if (round_recovered == 0) break;
    recovered += round_recovered;
  }
  return recovered;
}

LevelBResult assemble_result(std::vector<NetResult> results,
                             const SearchStats& stats) {
  LevelBResult result;
  result.vertices_examined += stats.vertices_examined;
  for (NetResult& net_result : results) {
    result.total_wire_length += net_result.wire_length;
    result.total_corners += net_result.corners;
    if (net_result.complete) {
      ++result.routed_nets;
    } else {
      ++result.failed_nets;
      if (net_result.outcome == util::StatusKind::kCancelled) {
        ++result.cancelled_nets;
      } else if (net_result.outcome == util::StatusKind::kBudgetExhausted) {
        ++result.budget_nets;
      }
    }
    result.nets.push_back(std::move(net_result));
  }
  return result;
}

UnroutedSuffix::UnroutedSuffix(
    const std::vector<std::vector<Point>>& snapped,
    const std::vector<std::size_t>& order, const tig::GridView& grid,
    const LevelBOptions& options) {
  std::vector<Point> flat;  // terminals in ordering sequence
  offset_.resize(order.size() + 1, 0);
  for (std::size_t k = 0; k < order.size(); ++k) {
    offset_[k] = flat.size();
    const auto& pts = snapped[order[k]];
    flat.insert(flat.end(), pts.begin(), pts.end());
  }
  offset_[order.size()] = flat.size();
  index_ = TerminalIndex(
      flat, make_cost_context(grid, options.dup_radius_pitches).dup_radius);
}

}  // namespace ocr::levelb
