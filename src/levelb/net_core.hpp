#pragma once
/// \file net_core.hpp
/// \brief Level-B routing types plus the order-independent core of net
/// routing, shared by the serial LevelBRouter and the parallel engine
/// (src/engine/).
///
/// Everything here is a pure function of its inputs: given the same grid
/// occupancy, options and terminal lists, each function produces the same
/// answer. That property is what lets the engine route a batch of nets in
/// parallel — a worker runs route_single_net() against the batch-start
/// grid, and the result is byte-identical to the serial router's as long
/// as no same-batch predecessor committed over a track interval the search
/// actually read (see SearchFootprint and DESIGN.md "Engine
/// architecture").

#include <cstddef>
#include <vector>

#include "levelb/path_finder.hpp"
#include "tig/track_grid.hpp"
#include "util/status.hpp"
#include "util/trace.hpp"

namespace ocr::levelb {

/// Net-ordering criteria (§3: "net ordering is accomplished using a
/// longest distance criterion. The option of a user specified ordering
/// criterion ... can be exercised").
enum class NetOrdering {
  kLongestFirst,   ///< descending half-perimeter (paper default)
  kShortestFirst,  ///< ascending half-perimeter (ablation)
  kAsGiven,        ///< caller-supplied order (e.g. criticality)
};

/// A net handed to the level-B router: an opaque id for reporting plus its
/// terminal positions in layout coordinates (snapped to grid crossings
/// internally).
struct BNet {
  int id = 0;
  std::vector<geom::Point> terminals;
  /// Sensitive nets register their committed wiring in the router's
  /// SensitiveRuns registry; later nets pay the w24 parallel-run penalty
  /// for hugging them (§3.2 extension). Sensitive nets are also never
  /// chosen as rip-up victims.
  bool sensitive = false;
};

struct LevelBOptions {
  PathFinderOptions finder;
  NetOrdering ordering = NetOrdering::kLongestFirst;
  /// dup-term radius in pitches (see cost.hpp).
  double dup_radius_pitches = 8.0;
  /// acf congestion-window half-width in pitches.
  double acf_window_pitches = 4.0;
  /// Rip-up-and-reroute rounds after the first pass: each round tries to
  /// complete every failed net by ripping up one nearby committed net,
  /// rerouting the failed net, then rerouting the victim; the swap is
  /// kept only if both complete. Mitigates the serial order dependency
  /// the paper's §3.2 edge weighting addresses. 0 disables.
  int ripup_rounds = 1;
  /// When set, the router records one "net" trace event per routed net
  /// (search effort, timings; engine runs add batch fields).
  /// Tracing never changes routing results.
  util::TraceSink* trace = nullptr;
  /// Vertex-expansion budget for one whole net (all its connections and
  /// retry targets combined); 0 = unlimited. A net that exhausts it stops
  /// routing with NetResult::outcome = kBudgetExhausted. Deterministic:
  /// vertex order is fixed, so the same budget always stops at the same
  /// point regardless of thread count. The cancel token rides in
  /// finder.cancel.
  long long net_vertex_budget = 0;
};

/// Routing outcome of one net.
struct NetResult {
  int id = 0;
  bool complete = false;
  std::vector<Path> paths;        ///< one per two-terminal connection
  geom::Coord wire_length = 0;    ///< sum of path lengths (dbu)
  int corners = 0;                ///< metal3<->metal4 vias
  int failed_connections = 0;
  /// Why the net is incomplete (kOk while complete): kUnroutable = no
  /// path existed, kCancelled = deadline/cancel fired mid-net,
  /// kBudgetExhausted = net_vertex_budget spent, kFaultInjected = an
  /// injected fault failed it (test harness only).
  util::StatusKind outcome = util::StatusKind::kOk;

  /// Wire-geometry equality (paths compare by their polylines).
  friend bool operator==(const NetResult&, const NetResult&) = default;
};

/// Aggregate result of a level-B run.
struct LevelBResult {
  std::vector<NetResult> nets;
  int routed_nets = 0;
  int failed_nets = 0;
  geom::Coord total_wire_length = 0;
  int total_corners = 0;
  long long vertices_examined = 0;  ///< MBFS effort (scaling bench)
  int cancelled_nets = 0;   ///< failed nets stopped by cancel/deadline
  int budget_nets = 0;      ///< failed nets that ran out of vertex budget
  int ripup_recovered = 0;  ///< nets completed by rip-up rounds

  double completion_rate() const {
    const int total = routed_nets + failed_nets;
    return total == 0 ? 1.0 : static_cast<double>(routed_nets) / total;
  }

  friend bool operator==(const LevelBResult&, const LevelBResult&) = default;
};

/// One committed track extent of a routed net (becomes a blocked extent
/// when the net commits; removed again on rip-up).
struct Committed {
  tig::TrackRef track;
  geom::Interval extent;

  friend constexpr auto operator<=>(const Committed&, const Committed&) =
      default;
};

/// Orders net indices per the configured criterion (§3 longest-distance
/// default; stable, so kAsGiven and equal extents keep input order).
std::vector<std::size_t> order_nets(const std::vector<BNet>& nets,
                                    NetOrdering ordering);

/// Snaps every terminal to a free grid crossing, collision-aware (distinct
/// nets never share a crossing while a free neighbour exists), and
/// reserves every snapped crossing by blocking it on both tracks —
/// terminals are the only legal inter-layer connection sites (§2).
/// Returns the snapped terminal list per net, parallel to \p nets.
std::vector<std::vector<geom::Point>> snap_and_reserve_terminals(
    tig::TrackGrid& grid, const std::vector<BNet>& nets);

/// Blocks / unblocks a terminal's crossing on both of its tracks.
void block_terminal(tig::TrackGrid& grid, const geom::Point& p);
void unblock_terminal(tig::TrackGrid& grid, const geom::Point& p);

/// Overlay variants: the engine's terminal braces, applied to a worker's
/// GridOverlay instead of a private grid copy. Track resolution uses the
/// overlay's base geometry, so the touched tracks are exactly the ones the
/// TrackGrid variants would mutate.
void block_terminal(tig::GridOverlay& overlay, const geom::Point& p);
void unblock_terminal(tig::GridOverlay& overlay, const geom::Point& p);

/// Blocks committed extents into the grid (the paper's per-connection
/// array update) or removes them again (rip-up support).
void commit_extents(tig::TrackGrid& grid,
                    const std::vector<Committed>& extents);
void uncommit_extents(tig::TrackGrid& grid,
                      const std::vector<Committed>& extents);

/// The dup cost term's view of one route's unrouted terminals: every
/// snapped terminal, flattened in ordering sequence (position k's
/// terminals, then k+1's, ...) and held in a TerminalIndex with cells of
/// side dup_radius. Built once per route and immutable after, so the
/// serial router, the engine's batch workers and its serial re-routes all
/// read one shared index.
class UnroutedSuffix {
 public:
  /// Indexes \p snapped in \p order, with the dup radius make_cost_context
  /// derives from \p grid and options.dup_radius_pitches.
  UnroutedSuffix(const std::vector<std::vector<geom::Point>>& snapped,
                 const std::vector<std::size_t>& order,
                 const tig::GridView& grid, const LevelBOptions& options);

  const TerminalIndex& index() const { return index_; }

  /// First flat position after ordering position \p position: the dup
  /// term of net k counts the flat entries from here on.
  std::size_t suffix_begin(std::size_t position) const {
    return offset_[position + 1];
  }

 private:
  std::vector<std::size_t> offset_;  // offset_[k] = start of position k
  TerminalIndex index_;
};

/// Inputs of one net's routing step.
struct NetRouteRequest {
  int net_id = 0;
  /// This net's snapped terminals. The net's own terminal crossings must
  /// already be unblocked in the grid when routing.
  const std::vector<geom::Point>* terminals = nullptr;
  /// The route's terminal index (dup cost term), or null for none (rip-up
  /// rounds). The dup term counts the terminals of the nets after
  /// ordering position `position`.
  const UnroutedSuffix* unrouted = nullptr;
  std::size_t position = 0;
  /// Committed sensitive wiring (w24 term), or null.
  const SensitiveRuns* sensitive = nullptr;
};

/// Routes one net against \p grid without mutating it: the §3.3 modified
/// Prim attachment loop over PathFinder::connect. Appends the extents to
/// commit to \p committed, accumulates effort into \p stats, and — when
/// \p footprint is non-null — records every occupancy read the searches
/// made as (track, interval) dependencies (the footprint the sharded
/// engine checks for region escapes). \p workspace supplies the searches' scratch
/// buffers; long-lived callers (the serial router, engine workers) pass
/// their own so steady-state routing does not allocate. Null falls back
/// to a throwaway workspace; results are identical either way.
/// \p grid is a view: serial callers pass their TrackGrid, engine workers
/// a GridOverlay over the batch-start grid — results are bit-identical for
/// equal effective occupancy.
NetResult route_single_net(tig::GridView grid,
                           const LevelBOptions& options,
                           const NetRouteRequest& request,
                           std::vector<Committed>& committed,
                           SearchStats& stats,
                           SearchFootprint* footprint = nullptr,
                           SearchWorkspace* workspace = nullptr);

/// Rip-up-and-reroute rounds over the failed nets (LevelBOptions::
/// ripup_rounds). All vectors are indexed by ordering position. Mutates
/// the grid through the trial-and-restore sequence; on return the grid
/// holds exactly the surviving wiring. Returns the number of previously
/// failed nets the rounds completed (the degradation ladder's recovery
/// counter). Stops early when the options' cancel token fires.
int run_ripup_rounds(tig::TrackGrid& grid, const LevelBOptions& options,
                     const std::vector<BNet>& nets_in_order,
                     const std::vector<std::vector<geom::Point>>& snapped,
                     std::vector<NetResult>& results,
                     std::vector<std::vector<Committed>>& committed,
                     SearchStats& stats,
                     SearchWorkspace* workspace = nullptr);

/// Folds per-position results + aggregate stats into a LevelBResult
/// (result.nets in ordering-position order, exactly like the serial
/// router).
LevelBResult assemble_result(std::vector<NetResult> results,
                             const SearchStats& stats);

}  // namespace ocr::levelb
