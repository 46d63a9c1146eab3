#pragma once
/// \file flow.hpp
/// \brief End-to-end routing flows: the paper's two-level methodology and
/// the baselines it is evaluated against.
///
/// Four flows, one per column of the paper's Tables 2 and 3:
///
/// * `run_two_layer_flow`      — the conventional baseline: every net is
///   channel-routed on metal1/metal2 (Table 2's comparator).
/// * `run_over_cell_flow`      — the proposed methodology: set-A nets in
///   channels (level A), set-B nets over the whole layout on metal3/4
///   (level B).
/// * `run_four_layer_channel_flow` — a real 4-layer channel router
///   (mlchannel layer-pair partitioning) for every net.
/// * `run_fifty_percent_model_flow` — the paper's optimistic Table-3
///   model: the two-layer solution with channel tracks halved.
///
/// Each flow returns FlowMetrics (layout area, wire length, via count,
/// completion) and can optionally surface FlowArtifacts for visualization
/// and inspection.

#include <string>
#include <vector>

#include "channel/greedy.hpp"
#include "floorplan/macro_layout.hpp"
#include "global/global_router.hpp"
#include "levelb/router.hpp"
#include "mlchannel/multilayer.hpp"
#include "netlist/layout.hpp"
#include "partition/partition.hpp"
#include "tig/track_grid.hpp"

namespace ocr::flow {

struct FlowOptions {
  channel::GreedyOptions greedy;
  levelb::LevelBOptions levelb;
  /// Boundary clearance added to every non-empty channel, in dbu.
  geom::Coord channel_margin = 6;
  /// Floor applied to every channel height, including empty channels.
  /// Zero by default; the all-over-cell policy (§5) needs a few dbu of
  /// row separation or the pin rows collapse onto too few metal3 tracks
  /// (the paper's caveat: eliminating channels assumes the level-B
  /// solution space still guarantees completion).
  geom::Coord min_channel_height = 0;
  /// Stacked vias charged per level-B terminal connection (metal1/2 pin up
  /// to the metal3/4 wire; the paper argues these land on the terminal
  /// pads, but they are still vias and counted as such).
  int terminal_stack_vias = 2;
  /// Run the corner-straightening post-pass on the level-B wiring
  /// (levelb/optimize.hpp). Off by default to keep the paper-faithful
  /// single-pass numbers; the ablation bench quantifies the gain.
  bool straighten_levelb = false;
  /// Level-B engine worker threads: 1 = the serial router, N > 1 = the
  /// sharded parallel engine (results are bit-identical for any value),
  /// <= 0 = one per hardware thread.
  int levelb_threads = 1;
  /// Parallel dispatch strategy for threads > 1: "sharded" or "auto"
  /// (engine::EngineMode; both are serial-exact). Any other name fails
  /// the flow up front.
  std::string levelb_engine_mode = "sharded";
};

/// Quality metrics of one routed flow (the quantities of Tables 2 and 3).
struct FlowMetrics {
  std::string flow_name;
  std::string example_name;
  bool success = true;
  std::vector<std::string> problems;

  geom::Coord die_width = 0;
  geom::Coord die_height = 0;
  geom::Coord layout_area = 0;
  long long wire_length = 0;  ///< dbu
  int vias = 0;
  int total_channel_tracks = 0;
  int levela_nets = 0;
  int levelb_nets = 0;
  double levelb_completion = 1.0;

  // Level-B engine observability (over-cell flow only).
  int levelb_threads = 1;                    ///< resolved worker count
  std::string levelb_engine_mode = "serial"; ///< dispatch that ran:
                                             ///  serial/sharded
  long long levelb_vertices = 0;             ///< MBFS vertices examined
  long long levelb_batches = 0;              ///< shard batches dispatched
  long long levelb_boundary_nets = 0;        ///< shard escapes re-routed
  long long levelb_sharded_commits = 0;      ///< batch results committed
  long long levelb_sharded_wasted_vertices = 0;   ///< escape search waste
  long long levelb_sharded_wasted_search_us = 0;  ///< escape search time

  // Memory observability (over-cell flow only).
  long long peak_rss_kb = 0;      ///< process ru_maxrss after routing
  long long tig_grid_bytes = 0;   ///< live grid heap (chunked occupancy
                                  ///  and track coordinates) after routing

  // Degradation-ladder counters (see DESIGN.md "Failure model"). All
  // zero on a healthy run without deadline/budget limits.
  long long degrade_fault_reroutes = 0;   ///< rung 1: serial re-routes of
                                          ///  faulted/failed batch searches
  int degrade_ripup_recovered = 0;        ///< rung 2: rip-up rescues
  long long degrade_fault_drops = 0;      ///< rung 3: nets dropped by an
                                          ///  apply fault
  int unrouted_nets = 0;     ///< level-B nets left incomplete
  int cancelled_nets = 0;    ///< of those, stopped by deadline/cancel
  int budget_nets = 0;       ///< of those, stopped by the effort budget
  long long pool_task_failures = 0;  ///< engine worker tasks that threw
  long long faults_injected = 0;     ///< registered faults that fired
};

/// Percent reduction of \p ours vs \p baseline for a metric (positive =
/// we are smaller), as the paper's Table 2 reports.
double percent_reduction(double baseline, double ours);

/// Optional detailed outputs for visualization and debugging.
struct FlowArtifacts {
  netlist::Layout layout{"unassembled"};
  std::vector<geom::Coord> channel_heights;
  std::vector<channel::ChannelRoute> channel_routes;
  global::GlobalRouteResult global;
  levelb::LevelBResult levelb;
  /// The level-B grid after routing (committed wires + obstacles).
  std::vector<geom::Rect> levelb_obstacles;
};

FlowMetrics run_two_layer_flow(const floorplan::MacroLayout& ml,
                               const FlowOptions& options = {},
                               FlowArtifacts* artifacts = nullptr);

FlowMetrics run_over_cell_flow(const floorplan::MacroLayout& ml,
                               const partition::NetPartition& partition,
                               const FlowOptions& options = {},
                               FlowArtifacts* artifacts = nullptr);

FlowMetrics run_four_layer_channel_flow(const floorplan::MacroLayout& ml,
                                        const FlowOptions& options = {},
                                        FlowArtifacts* artifacts = nullptr);

FlowMetrics run_fifty_percent_model_flow(const floorplan::MacroLayout& ml,
                                         const FlowOptions& options = {});

}  // namespace ocr::flow
