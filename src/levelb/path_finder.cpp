#include "levelb/path_finder.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "levelb/workspace.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace ocr::levelb {
namespace {

using geom::Coord;
using geom::Interval;
using geom::Orientation;
using geom::Point;
using tig::TrackRef;

/// Inclusive track-index window restricting one search pass (§3.1: "the
/// solution space for each MBFS is defined by the locations of the two net
/// terminals within a rectangular region").
struct Window {
  int i_lo = 0;
  int i_hi = 0;
  int j_lo = 0;
  int j_hi = 0;
};

Window make_window(const tig::GridView& grid, const Point& a,
                   const Point& b, int margin) {
  Window w;
  const int ia = grid.nearest_h(a.y);
  const int ib = grid.nearest_h(b.y);
  const int ja = grid.nearest_v(a.x);
  const int jb = grid.nearest_v(b.x);
  w.i_lo = std::max(0, std::min(ia, ib) - margin);
  w.i_hi = std::min(grid.num_h() - 1, std::max(ia, ib) + margin);
  w.j_lo = std::max(0, std::min(ja, jb) - margin);
  w.j_hi = std::min(grid.num_v() - 1, std::max(ja, jb) + margin);
  return w;
}

/// The track indices in [lo, hi] whose coordinate lies inside \p gap, as
/// {first, last} (empty when first > last): two binary searches over the
/// window's slice of the ascending coordinate array. The same range as
/// max(lo, first_at_or_above(gap.lo)) .. min(hi, last_at_or_below(
/// gap.hi)) — the crossings an MBFS node may turn at.
std::pair<int, int> crossings_in_window(const std::vector<Coord>& coords,
                                        int lo, int hi, const Interval& gap) {
  const auto end = coords.begin() + hi + 1;
  const auto first = std::lower_bound(coords.begin() + lo, end, gap.lo);
  const auto last = std::upper_bound(first, end, gap.hi);
  return {static_cast<int>(first - coords.begin()),
          static_cast<int>(last - coords.begin()) - 1};
}

bool window_is_full_grid(const tig::GridView& grid, const Window& w) {
  return w.i_lo == 0 && w.j_lo == 0 && w.i_hi == grid.num_h() - 1 &&
         w.j_hi == grid.num_v() - 1;
}

/// Cancellation / budget state threaded through the MBFS passes of one
/// connect() call. The flags record why a pass stopped early.
struct SearchLimits {
  const util::CancelToken* cancel = nullptr;
  long long vertex_budget = 0;  ///< 0 = unlimited
  bool hit_cancel = false;
  bool hit_budget = false;

  /// Called per vertex expansion with the cumulative count; true = stop.
  bool should_stop(int vertices_examined) {
    if (vertex_budget > 0 && vertices_examined >= vertex_budget) {
      hit_budget = true;
      return true;
    }
    if (cancel != nullptr && (vertices_examined & 63) == 0) {
      cancel->note_progress(64);
      if (cancel->cancelled()) {
        hit_cancel = true;
        return true;
      }
    }
    return false;
  }
};

/// True when \p v lies inside a free segment of this track that the pass
/// already visited. A track's free segments are disjoint, so containment
/// of the crossing coordinate is exactly the (orientation, track,
/// segment.lo) visited-set test of the paper's single-examination rule —
/// and it runs *before* the free-segment lookup, so re-probed crossings
/// (the common case: every later node crossing the same track) skip the
/// occupancy query entirely. Revalidates the slot's generation stamp.
inline bool visited_contains(SearchWorkspace::VisitSlot& slot,
                             std::uint64_t generation, Coord v) {
  if (slot.gen != generation) {
    slot.gen = generation;
    slot.count = 0;
    return false;
  }
  if (slot.count == 0) return false;
  if (slot.first.contains(v)) return true;
  for (int s = 0; s + 1 < slot.count; ++s) {
    if (slot.overflow[static_cast<std::size_t>(s)].contains(v)) return true;
  }
  return false;
}

/// Records \p seg visited. Callers have already established v ∉ any
/// visited segment for some v ∈ seg, which (disjointness again) implies
/// seg itself is new — no membership scan needed. The slot's stamp must
/// already be current (visited_contains revalidates it).
///
/// Overflow storage comes from the workspace arena. A slot whose
/// arena_epoch predates the current connect holds a dangling pointer; its
/// count is necessarily <= 1 then (generations are monotonic, so a stale
/// epoch implies the gen check above already zeroed the count), which
/// makes "drop the capacity and allocate fresh" safe — nothing live is
/// copied out of the dead storage.
inline void visit(SearchWorkspace::VisitSlot& slot, util::Arena& arena,
                  std::uint64_t generation, const Interval& seg) {
  if (slot.gen != generation) {
    slot.gen = generation;
    slot.count = 0;
  }
  if (slot.count == 0) {
    slot.first = seg;
  } else {
    const int have = slot.count - 1;
    if (slot.arena_epoch != arena.epoch()) {
      slot.overflow_cap = 0;
      slot.arena_epoch = arena.epoch();
    }
    if (have >= slot.overflow_cap) {
      const int new_cap = slot.overflow_cap == 0 ? 4 : slot.overflow_cap * 2;
      slot.overflow = arena.grow_array(
          slot.overflow, static_cast<std::size_t>(have),
          static_cast<std::size_t>(new_cap));
      slot.overflow_cap = new_cap;
    }
    slot.overflow[have] = seg;
  }
  ++slot.count;
}

/// One modified BFS pass. Fills \p tree (expansion order) and \p arrivals
/// (all target attachments at the minimum depth at which any occurs).
/// All scratch state lives in \p ws.
void run_mbfs(const tig::GridView& grid, const Point& a, const Point& b,
              Orientation source_orient, const Window& w,
              SearchWorkspace& ws, PathSelectionTree& tree,
              std::vector<SearchArrival>& arrivals, SearchStats& stats,
              SearchFootprint* footprint, SearchLimits& limits) {
  tree.nodes.clear();
  arrivals.clear();
  ++ws.generation;  // invalidates every visited slot in O(1)

  const int i_a = grid.nearest_h(a.y);
  const int j_a = grid.nearest_v(a.x);
  const int i_b = grid.nearest_h(b.y);
  const int j_b = grid.nearest_v(b.x);

  // Free-segment reads depend on exactly the gap returned: with block-only
  // commits a blockage landing inside it changes the answer, one outside
  // cannot (and a blocked probe point can never become free).
  const auto note_h = [footprint](int i, const std::optional<Interval>& g) {
    if (footprint != nullptr && g) footprint->add_h(i, *g);
  };
  const auto note_v = [footprint](int j, const std::optional<Interval>& g) {
    if (footprint != nullptr && g) footprint->add_v(j, *g);
  };

  // Root: the source track with its free segment containing the terminal.
  TreeNode root;
  if (source_orient == Orientation::kVertical) {
    const auto seg = grid.v_free_segment(j_a, a.y);
    note_v(j_a, seg);
    if (!seg) return;  // terminal buried under an obstacle on this layer
    root = TreeNode{TrackRef{Orientation::kVertical, j_a}, *seg, a, -1, 0};
  } else {
    const auto seg = grid.h_free_segment(i_a, a.x);
    note_h(i_a, seg);
    if (!seg) return;
    root = TreeNode{TrackRef{Orientation::kHorizontal, i_a}, *seg, a, -1, 0};
  }
  tree.nodes.push_back(root);
  {
    SearchWorkspace::VisitSlot& slot =
        source_orient == Orientation::kVertical
            ? ws.visited_v[static_cast<std::size_t>(j_a)]
            : ws.visited_h[static_cast<std::size_t>(i_a)];
    visit(slot, ws.arena, ws.generation, root.extent);
  }

  ws.queue.clear();
  ws.queue.push_back(0);
  std::size_t queue_head = 0;
  int arrival_depth = -1;

  // Target attachment test, hoisted out of the expansion loop: a crossing
  // p on the target track completes the connection iff the free gap
  // containing p also contains b — and since a track's gaps are disjoint,
  // that is exactly "p lies inside the gap containing b". Computing that
  // gap once per pass replaces one occupancy query per target-track
  // crossing with an interval containment test. The pass's arrival
  // decisions depend on no other read of the target track, so this single
  // read is also the only footprint entry they need.
  const auto target_gap_h = grid.h_free_segment(i_b, b.x);
  note_h(i_b, target_gap_h);
  const auto target_gap_v = grid.v_free_segment(j_b, b.y);
  note_v(j_b, target_gap_v);

  const auto try_target_h = [&](int node, const Point& p) {
    if (target_gap_h && target_gap_h->contains(p.x)) {
      arrivals.push_back(
          SearchArrival{node, p, TrackRef{Orientation::kHorizontal, i_b}});
      return true;
    }
    return false;
  };
  const auto try_target_v = [&](int node, const Point& p) {
    if (target_gap_v && target_gap_v->contains(p.y)) {
      arrivals.push_back(
          SearchArrival{node, p, TrackRef{Orientation::kVertical, j_b}});
      return true;
    }
    return false;
  };

  while (queue_head < ws.queue.size()) {
    const int n = ws.queue[queue_head++];
    const TreeNode node = tree.nodes[static_cast<std::size_t>(n)];
    // Once a depth has produced arrivals, the rest of that depth is still
    // drained (it can hold sibling arrivals at the same corner count) but
    // nothing deeper is expanded.
    if (arrival_depth >= 0 && node.depth > arrival_depth) continue;
    ++stats.vertices_examined;
    if (limits.should_stop(stats.vertices_examined)) return;
    const bool collect_only = arrival_depth >= 0;  // no deeper enqueues

    if (node.track.orient == Orientation::kVertical) {
      const int j = node.track.index;
      const Coord x = grid.v_x(j);
      // Only tracks whose coordinate lies inside the node's free extent
      // and the window can be crossed (visited in ascending order). The
      // range is found here, not at node creation, so the nodes of the
      // last depth, which are never expanded, never pay for it.
      const auto [i_first, i_last] =
          crossings_in_window(grid.h_ys(), w.i_lo, w.i_hi, node.extent);
      for (int i = i_first; i <= i_last; ++i) {
        const Coord y = grid.h_y(i);
        // Skip the root's degenerate turn at the terminal itself: that
        // path family belongs to the other MBFS pass.
        if (node.parent == -1 && y == a.y) continue;
        const Point p{x, y};
        if (i == i_b && try_target_h(n, p)) {
          if (arrival_depth < 0) arrival_depth = node.depth;
          continue;
        }
        if (collect_only) continue;
        SearchWorkspace::VisitSlot& slot =
            ws.visited_h[static_cast<std::size_t>(i)];
        if (visited_contains(slot, ws.generation, x)) continue;
        const auto gap = grid.h_free_segment(i, x);
        note_h(i, gap);
        if (!gap) continue;
        visit(slot, ws.arena, ws.generation, *gap);  // x ∉ visited ⇒ *gap is new
        const TrackRef t{Orientation::kHorizontal, i};
        tree.nodes.push_back(TreeNode{t, *gap, p, n, node.depth + 1});
        ws.queue.push_back(static_cast<int>(tree.nodes.size()) - 1);
      }
    } else {
      const int i = node.track.index;
      const Coord y = grid.h_y(i);
      const auto [j_first, j_last] =
          crossings_in_window(grid.v_xs(), w.j_lo, w.j_hi, node.extent);
      for (int j = j_first; j <= j_last; ++j) {
        const Coord x = grid.v_x(j);
        if (node.parent == -1 && x == a.x) continue;
        const Point p{x, y};
        if (j == j_b && try_target_v(n, p)) {
          if (arrival_depth < 0) arrival_depth = node.depth;
          continue;
        }
        if (collect_only) continue;
        SearchWorkspace::VisitSlot& slot =
            ws.visited_v[static_cast<std::size_t>(j)];
        if (visited_contains(slot, ws.generation, y)) continue;
        const auto gap = grid.v_free_segment(j, y);
        note_v(j, gap);
        if (!gap) continue;
        visit(slot, ws.arena, ws.generation, *gap);  // y ∉ visited ⇒ *gap is new
        const TrackRef t{Orientation::kVertical, j};
        tree.nodes.push_back(TreeNode{t, *gap, p, n, node.depth + 1});
        ws.queue.push_back(static_cast<int>(tree.nodes.size()) - 1);
      }
    }
  }
}

/// Reconstructs the candidate path of an arrival by walking tree parents.
/// Writes into \p out (cleared first) so its buffers are reused.
void build_path_into(const PathSelectionTree& tree,
                     const SearchArrival& arrival, const Point& a,
                     const Point& b, std::vector<int>& chain, Path& out) {
  chain.clear();  // root .. arrival.parent
  for (int n = arrival.parent; n >= 0;
       n = tree.nodes[static_cast<std::size_t>(n)].parent) {
    chain.push_back(n);
  }
  std::reverse(chain.begin(), chain.end());

  out.points.clear();
  out.tracks.clear();
  out.points.push_back(a);
  for (std::size_t k = 1; k < chain.size(); ++k) {
    const TreeNode& node = tree.nodes[static_cast<std::size_t>(chain[k])];
    out.points.push_back(node.entry);
    out.tracks.push_back(
        tree.nodes[static_cast<std::size_t>(chain[k - 1])].track);
  }
  // Leg along the arrival's parent track to the final corner, then along
  // the target track to b.
  out.points.push_back(arrival.corner);
  out.tracks.push_back(
      tree.nodes[static_cast<std::size_t>(arrival.parent)].track);
  out.points.push_back(b);
  out.tracks.push_back(arrival.target);
  out.canonicalize();
}

/// Order- and collision-stable polyline hash (paths compare by points).
std::uint64_t path_hash(const Path& p) {
  std::uint64_t h = util::kFnv1aOffset;
  for (const Point& pt : p.points) {
    h = util::fnv1a_value(pt.x, h);
    h = util::fnv1a_value(pt.y, h);
  }
  return h;
}

}  // namespace

std::string PathSelectionTree::to_string() const {
  std::string out;
  // Depth-first print with indentation; children in creation order.
  std::vector<std::vector<int>> children(nodes.size());
  for (std::size_t n = 1; n < nodes.size(); ++n) {
    children[static_cast<std::size_t>(nodes[n].parent)].push_back(
        static_cast<int>(n));
  }
  const auto label = [this](int n) {
    const TreeNode& node = nodes[static_cast<std::size_t>(n)];
    const char tag =
        node.track.orient == Orientation::kHorizontal ? 'h' : 'v';
    return std::string(1, tag) + std::to_string(node.track.index + 1);
  };
  std::vector<std::pair<int, int>> stack;  // (node, indent)
  if (!nodes.empty()) stack.emplace_back(0, 0);
  while (!stack.empty()) {
    const auto [n, indent] = stack.back();
    stack.pop_back();
    out.append(static_cast<std::size_t>(indent) * 2, ' ');
    out += label(n);
    out += "\n";
    const auto& kids = children[static_cast<std::size_t>(n)];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.emplace_back(*it, indent + 1);
    }
  }
  return out;
}

PathFinder::PathFinder(tig::GridView grid, Options options)
    : grid_(grid), options_(options) {}

PathFinder::Result PathFinder::connect(const geom::Point& a,
                                       const geom::Point& b,
                                       const CostContext& ctx) const {
  SearchWorkspace ws;
  return connect(a, b, ctx, ws);
}

PathFinder::Result PathFinder::connect(const geom::Point& a,
                                       const geom::Point& b,
                                       const CostContext& ctx,
                                       SearchWorkspace& ws) const {
  Result result;
  if (a == b) {
    result.found = true;
    return result;
  }
  const int i_a = grid_.nearest_h(a.y);
  const int j_a = grid_.nearest_v(a.x);
  const int i_b = grid_.nearest_h(b.y);
  const int j_b = grid_.nearest_v(b.x);
  OCR_ASSERT(grid_.h_y(i_a) == a.y && grid_.v_x(j_a) == a.x,
             "connect: endpoint a is not a grid crossing");
  OCR_ASSERT(grid_.h_y(i_b) == b.y && grid_.v_x(j_b) == b.x,
             "connect: endpoint b is not a grid crossing");

  // Straight (zero-corner) connections short-circuit the search.
  if (a.x == b.x) {
    const auto seg = grid_.v_free_segment(j_a, a.y);
    if (ctx.footprint != nullptr && seg) ctx.footprint->add_v(j_a, *seg);
    if (seg && seg->contains(b.y)) {
      result.found = true;
      result.path.points = {a, b};
      result.path.tracks = {TrackRef{Orientation::kVertical, j_a}};
      result.corners = 0;
      return result;
    }
  }
  if (a.y == b.y) {
    const auto seg = grid_.h_free_segment(i_a, a.x);
    if (ctx.footprint != nullptr && seg) ctx.footprint->add_h(i_a, *seg);
    if (seg && seg->contains(b.x)) {
      result.found = true;
      result.path.points = {a, b};
      result.path.tracks = {TrackRef{Orientation::kHorizontal, i_a}};
      result.corners = 0;
      return result;
    }
  }

  ws.prepare(grid_);
  // One connect = one arena lifetime: reclaim every overflow list from
  // the previous connect in O(1) (blocks are kept, so steady state does
  // no heap work here).
  ws.arena.reset();

  SearchLimits limits;
  if (options_.cancel.valid()) limits.cancel = &options_.cancel;
  limits.vertex_budget = options_.vertex_budget;

  int margin = options_.window_margin;
  for (int step = 0;; ++step) {
    const bool final_step = step >= options_.max_window_steps;
    Window w = final_step
                   ? Window{0, grid_.num_h() - 1, 0, grid_.num_v() - 1}
                   : make_window(grid_, a, b, margin);

    run_mbfs(grid_, a, b, Orientation::kVertical, w, ws, ws.tree_v,
             ws.arrivals_v, result.stats, ctx.footprint, limits);
    if (!limits.hit_cancel && !limits.hit_budget) {
      run_mbfs(grid_, a, b, Orientation::kHorizontal, w, ws, ws.tree_h,
               ws.arrivals_h, result.stats, ctx.footprint, limits);
    }
    if (limits.hit_cancel || limits.hit_budget) {
      // Abort the whole connect: a partial pass could miss arrivals, and
      // acting on an incomplete tree would make results depend on where
      // the limit landed. Both stop points are deterministic for budgets.
      result.found = false;
      result.cancelled = limits.hit_cancel;
      result.budget_exhausted = limits.hit_budget;
      if (options_.keep_trees) {
        result.tree_v = ws.tree_v;
        result.tree_h = ws.tree_h;
      }
      return result;
    }

    // Materialize candidates from both trees into reused buffers.
    const std::size_t total =
        ws.arrivals_v.size() + ws.arrivals_h.size();
    if (ws.candidates.size() < total) ws.candidates.resize(total);
    std::size_t count = 0;
    for (const SearchArrival& arr : ws.arrivals_v) {
      build_path_into(ws.tree_v, arr, a, b, ws.chain,
                      ws.candidates[count++]);
    }
    for (const SearchArrival& arr : ws.arrivals_h) {
      build_path_into(ws.tree_h, arr, a, b, ws.chain,
                      ws.candidates[count++]);
    }
    // Deduplicate identical polylines (degenerate legs can collapse
    // distinct track sequences onto the same wire): hash probe with a
    // verify compare, first occurrence kept — byte-identical to the
    // former linear find, collisions included (equal hash but unequal
    // polyline stays a distinct candidate).
    ws.unique.clear();
    ws.unique_hashes.clear();
    for (std::size_t k = 0; k < count; ++k) {
      const Path& c = ws.candidates[k];
      if (c.empty()) continue;
      const std::uint64_t h = path_hash(c);
      bool duplicate = false;
      for (std::size_t u = 0; u < ws.unique.size(); ++u) {
        if (ws.unique_hashes[u] == h &&
            ws.candidates[static_cast<std::size_t>(ws.unique[u])] == c) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        ws.unique.push_back(static_cast<int>(k));
        ws.unique_hashes.push_back(h);
      }
    }

    if (!ws.unique.empty()) {
      // Keep only globally minimum-corner candidates, then select by the
      // weighted cost with bounding (§3.2).
      int min_corners =
          ws.candidates[static_cast<std::size_t>(ws.unique.front())]
              .corners();
      for (const int u : ws.unique) {
        min_corners = std::min(
            min_corners,
            ws.candidates[static_cast<std::size_t>(u)].corners());
      }
      double best_cost = 0.0;
      int best = -1;
      for (const int u : ws.unique) {
        const Path& c = ws.candidates[static_cast<std::size_t>(u)];
        if (c.corners() != min_corners) continue;
        double cost = options_.weights.w1 * static_cast<double>(c.length()) /
                      static_cast<double>(ctx.pitch);
        bool pruned = best >= 0 && cost >= best_cost;
        if (!pruned && ctx.sensitive != nullptr) {
          // Extension term: parallel-run penalty per leg (§3.2).
          for (std::size_t leg = 0; leg + 1 < c.points.size(); ++leg) {
            const Point& p = c.points[leg];
            const Point& q = c.points[leg + 1];
            const bool horizontal =
                c.tracks[leg].orient == Orientation::kHorizontal;
            const Interval span =
                horizontal
                    ? Interval(std::min(p.x, q.x), std::max(p.x, q.x))
                    : Interval(std::min(p.y, q.y), std::max(p.y, q.y));
            cost += leg_parallel_cost(grid_, options_.weights, ctx,
                                      c.tracks[leg], span);
            if (best >= 0 && cost >= best_cost) {
              pruned = true;
              break;
            }
          }
        }
        if (!pruned) {
          for (std::size_t leg = 1; leg + 1 < c.points.size(); ++leg) {
            const Point& p = c.points[leg];
            const TrackRef& t_in = c.tracks[leg - 1];
            const TrackRef& t_out = c.tracks[leg];
            const int h = t_in.orient == Orientation::kHorizontal
                              ? t_in.index
                              : t_out.index;
            const int v = t_in.orient == Orientation::kVertical
                              ? t_in.index
                              : t_out.index;
            cost += corner_cost(grid_, options_.weights, ctx, p, h, v);
            if (best >= 0 && cost >= best_cost) {
              pruned = true;  // bounding: partial cost already loses
              break;
            }
          }
        }
        if (!pruned && (best < 0 || cost < best_cost)) {
          best = u;
          best_cost = cost;
        }
      }
      OCR_ASSERT(best >= 0, "no candidate survived selection");
      result.found = true;
      result.path = ws.candidates[static_cast<std::size_t>(best)];
      result.corners = min_corners;
      result.stats.candidates = static_cast<int>(ws.unique.size());
      if (options_.keep_trees) {
        result.tree_v = ws.tree_v;
        result.tree_h = ws.tree_h;
      }
      return result;
    }

    if (final_step || window_is_full_grid(grid_, w)) break;
    margin *= 4;
    ++result.stats.window_growths;
  }
  result.found = false;
  if (options_.keep_trees) {
    result.tree_v = ws.tree_v;
    result.tree_h = ws.tree_h;
  }
  return result;
}

}  // namespace ocr::levelb
