#include "flow/flow.hpp"

#include "engine/engine.hpp"
#include "levelb/optimize.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/mem.hpp"
#include "util/profile.hpp"

namespace ocr::flow {
namespace {

using floorplan::MacroLayout;
using geom::Coord;

std::vector<int> to_indices(const std::vector<netlist::NetId>& ids) {
  std::vector<int> out;
  out.reserve(ids.size());
  for (netlist::NetId id : ids) out.push_back(static_cast<int>(id.index()));
  return out;
}

/// Level-A routing of \p nets: global route into channels, then greedy
/// two-layer detail routing per channel. Produces channel heights and the
/// level-A share of the metrics.
struct LevelAOutcome {
  bool success = true;
  std::vector<std::string> problems;
  global::GlobalRouteResult global;
  std::vector<channel::ChannelRoute> routes;
  std::vector<Coord> heights;
  long long wire_length = 0;
  int vias = 0;
  int total_tracks = 0;
};

LevelAOutcome route_level_a(const MacroLayout& ml,
                            const std::vector<int>& nets,
                            const FlowOptions& options) {
  OCR_SPAN("flow.levelA");
  LevelAOutcome out;
  const geom::DesignRules& rules = ml.rules();
  const Coord col_pitch =
      rules.channel_pitch(geom::Layer::kMetal1, geom::Layer::kMetal2);
  const Coord track_pitch = col_pitch;

  global::GlobalOptions gopt;
  gopt.column_pitch = col_pitch;
  out.global = global::global_route(ml, nets, gopt);
  if (!out.global.success) {
    out.success = false;
    out.problems = out.global.problems;
  }

  out.heights.resize(static_cast<std::size_t>(ml.num_channels()), 0);
  for (int c = 0; c < ml.num_channels(); ++c) {
    // Deadline/cancel support (flow::run): remaining channels are skipped
    // and reported, never half-routed.
    if (options.levelb.finder.cancel.cancelled()) {
      out.success = false;
      out.problems.push_back(
          "level A cancelled before channel " + std::to_string(c) + ": " +
          options.levelb.finder.cancel.reason().to_string());
      break;
    }
    const channel::ChannelProblem& problem =
        out.global.channels[static_cast<std::size_t>(c)];
    channel::ChannelRoute route =
        channel::route_greedy(problem, options.greedy);
    if (!route.success) {
      out.success = false;
      out.problems.push_back("channel " + std::to_string(c) + ": " +
                             route.failure_reason);
    }
    const bool has_pins = problem.max_net() > 0;
    out.heights[static_cast<std::size_t>(c)] = std::max(
        static_cast<Coord>(route.num_tracks) * track_pitch +
            (has_pins ? options.channel_margin : 0),
        options.min_channel_height);
    out.total_tracks += route.num_tracks;
    long long h_len = 0;
    long long v_len = 0;
    for (const channel::HSeg& h : route.hsegs) h_len += h.col_hi - h.col_lo;
    for (const channel::VSeg& v : route.vsegs) v_len += v.row_hi - v.row_lo;
    out.wire_length += h_len * col_pitch + v_len * track_pitch;
    out.vias += route.via_count();
    out.routes.push_back(std::move(route));
  }
  out.wire_length += out.global.feedthrough_length;
  out.vias += out.global.feedthrough_vias;
  return out;
}

/// Builds the level-B routing grid over the assembled layout, applying
/// over-cell obstacles.
tig::TrackGrid make_levelb_grid(const netlist::Layout& layout) {
  const geom::DesignRules& rules = layout.rules();
  tig::TrackGrid grid = tig::TrackGrid::uniform(
      layout.die(), rules.rule(geom::Layer::kMetal3).pitch(),
      rules.rule(geom::Layer::kMetal4).pitch());
  for (const netlist::Obstacle& obstacle : layout.obstacles()) {
    if (obstacle.blocks_metal3) grid.block_region_h(obstacle.region);
    if (obstacle.blocks_metal4) grid.block_region_v(obstacle.region);
  }
  return grid;
}

void fill_common(FlowMetrics& m, const MacroLayout& ml,
                 const LevelAOutcome& a) {
  m.example_name = ml.name();
  m.die_width = ml.die_width();
  m.die_height = ml.die_height(a.heights);
  m.layout_area = m.die_width * m.die_height;
  m.wire_length = a.wire_length;
  m.vias = a.vias;
  m.total_channel_tracks = a.total_tracks;
  if (!a.success) {
    m.success = false;
    m.problems.insert(m.problems.end(), a.problems.begin(),
                      a.problems.end());
  }
}

}  // namespace

double percent_reduction(double baseline, double ours) {
  if (baseline == 0.0) return 0.0;
  return 100.0 * (baseline - ours) / baseline;
}

FlowMetrics run_two_layer_flow(const MacroLayout& ml,
                               const FlowOptions& options,
                               FlowArtifacts* artifacts) {
  FlowMetrics m;
  m.flow_name = "2-layer channel";
  std::vector<int> all_nets;
  for (int n = 0; n < static_cast<int>(ml.nets().size()); ++n) {
    all_nets.push_back(n);
  }
  const LevelAOutcome a = route_level_a(ml, all_nets, options);
  fill_common(m, ml, a);
  m.levela_nets = static_cast<int>(all_nets.size());
  if (artifacts != nullptr) {
    artifacts->layout = ml.assemble(a.heights);
    artifacts->channel_heights = a.heights;
    artifacts->channel_routes = a.routes;
    artifacts->global = a.global;
  }
  return m;
}

FlowMetrics run_over_cell_flow(const MacroLayout& ml,
                               const partition::NetPartition& partition,
                               const FlowOptions& options,
                               FlowArtifacts* artifacts) {
  FlowMetrics m;
  m.flow_name = "4-layer over-cell";

  // Level A: the selected subset in channels.
  const LevelAOutcome a =
      route_level_a(ml, to_indices(partition.set_a), options);
  fill_common(m, ml, a);
  m.levela_nets = static_cast<int>(partition.set_a.size());
  m.levelb_nets = static_cast<int>(partition.set_b.size());

  // The layout is now fixed (§2): assemble and route level B on top.
  netlist::Layout layout = [&] {
    OCR_SPAN("flow.assemble");
    return ml.assemble(a.heights);
  }();
  tig::TrackGrid grid = [&] {
    OCR_SPAN("flow.tig_build");
    return make_levelb_grid(layout);
  }();

  std::vector<levelb::BNet> bnets;
  for (netlist::NetId id : partition.set_b) {
    levelb::BNet bnet;
    bnet.id = static_cast<int>(id.index());
    bnet.terminals = layout.net_pin_positions(id);
    bnets.push_back(std::move(bnet));
  }
  engine::EngineOptions eopt;
  eopt.levelb = options.levelb;
  eopt.threads = options.levelb_threads;
  const util::StatusOr<engine::EngineMode> mode =
      engine::parse_engine_mode(options.levelb_engine_mode);
  if (!mode.ok()) {
    m.success = false;
    m.problems.push_back(mode.status().to_string());
    return m;
  }
  eopt.mode = mode.value();
  engine::RoutingEngine router(grid, eopt);
  levelb::LevelBResult b = [&] {
    OCR_SPAN("flow.levelB");
    return router.route(bnets);
  }();
  if (options.straighten_levelb) {
    OCR_SPAN("flow.optimize");
    levelb::straighten_corners(grid, b);
  }
  m.levelb_threads = router.stats().threads;
  m.levelb_engine_mode = router.stats().mode;
  m.levelb_vertices = b.vertices_examined;
  m.levelb_batches = router.stats().batches;
  m.levelb_boundary_nets = router.stats().boundary_nets;
  m.levelb_sharded_commits = router.stats().sharded_commits;
  m.levelb_sharded_wasted_vertices = router.stats().sharded_wasted_vertices;
  m.levelb_sharded_wasted_search_us =
      router.stats().sharded_wasted_search_us;
  m.peak_rss_kb = util::peak_rss_kb();
  m.tig_grid_bytes = static_cast<long long>(grid.grid_bytes());
  m.degrade_fault_reroutes =
      router.stats().fault_reroutes + router.stats().worker_failures;
  m.degrade_ripup_recovered = b.ripup_recovered;
  m.degrade_fault_drops = router.stats().fault_drops;
  m.unrouted_nets = b.failed_nets;
  m.cancelled_nets = b.cancelled_nets;
  m.budget_nets = b.budget_nets;
  m.pool_task_failures = router.stats().pool_task_failures;

  m.wire_length += b.total_wire_length;
  int b_terminals = 0;
  for (netlist::NetId id : partition.set_b) {
    b_terminals += layout.net(id).degree();
  }
  m.vias += b.total_corners + options.terminal_stack_vias * b_terminals;
  m.levelb_completion = b.completion_rate();
  if (b.failed_nets > 0) {
    m.problems.push_back(std::to_string(b.failed_nets) +
                         " level-B nets incomplete");
  }

  if (artifacts != nullptr) {
    artifacts->channel_heights = a.heights;
    artifacts->channel_routes = a.routes;
    artifacts->global = a.global;
    artifacts->levelb = std::move(b);
    for (const netlist::Obstacle& o : layout.obstacles()) {
      artifacts->levelb_obstacles.push_back(o.region);
    }
    artifacts->layout = std::move(layout);
  }
  return m;
}

FlowMetrics run_four_layer_channel_flow(const MacroLayout& ml,
                                        const FlowOptions& options,
                                        FlowArtifacts* artifacts) {
  FlowMetrics m;
  m.flow_name = "4-layer channel";
  const geom::DesignRules& rules = ml.rules();
  const Coord col_pitch =
      rules.channel_pitch(geom::Layer::kMetal1, geom::Layer::kMetal2);

  std::vector<int> all_nets;
  for (int n = 0; n < static_cast<int>(ml.nets().size()); ++n) {
    all_nets.push_back(n);
  }
  global::GlobalOptions gopt;
  gopt.column_pitch = col_pitch;
  global::GlobalRouteResult global = global_route(ml, all_nets, gopt);
  if (!global.success) {
    m.success = false;
    m.problems = global.problems;
  }

  std::vector<Coord> heights(static_cast<std::size_t>(ml.num_channels()),
                             0);
  const Coord pitch12 =
      rules.channel_pitch(geom::Layer::kMetal1, geom::Layer::kMetal2);
  const Coord pitch34 =
      rules.channel_pitch(geom::Layer::kMetal3, geom::Layer::kMetal4);
  mlchannel::MultiLayerOptions mlopt;
  mlopt.greedy = options.greedy;
  OCR_SPAN("flow.mlchannel");
  for (int c = 0; c < ml.num_channels(); ++c) {
    const channel::ChannelProblem& problem =
        global.channels[static_cast<std::size_t>(c)];
    mlchannel::MultiLayerChannelResult result =
        mlchannel::route_multilayer(problem, mlopt);
    if (!result.success) {
      m.success = false;
      m.problems.push_back("channel " + std::to_string(c) + ": " +
                           result.failure_reason);
    }
    const bool has_pins = problem.max_net() > 0;
    heights[static_cast<std::size_t>(c)] =
        result.channel_height(rules) +
        (has_pins ? options.channel_margin : 0);
    // Wire length: horizontal runs at the column pitch; vertical runs at
    // each group's track pitch (group 1 pays the metal3/4 pitch).
    for (std::size_t g = 0; g < result.group_routes.size(); ++g) {
      const channel::ChannelRoute& route = result.group_routes[g];
      const Coord vpitch = g == 0 ? pitch12 : pitch34;
      long long h_len = 0;
      long long v_len = 0;
      for (const channel::HSeg& h : route.hsegs) {
        h_len += h.col_hi - h.col_lo;
      }
      for (const channel::VSeg& v : route.vsegs) {
        v_len += v.row_hi - v.row_lo;
      }
      m.wire_length += h_len * col_pitch + v_len * vpitch;
      m.total_channel_tracks += route.num_tracks;
    }
    m.vias += result.via_count();
  }
  m.wire_length += global.feedthrough_length;
  m.vias += global.feedthrough_vias;

  m.example_name = ml.name();
  m.die_width = ml.die_width();
  m.die_height = ml.die_height(heights);
  m.layout_area = m.die_width * m.die_height;
  m.levela_nets = static_cast<int>(all_nets.size());
  if (artifacts != nullptr) {
    artifacts->layout = ml.assemble(heights);
    artifacts->channel_heights = heights;
    artifacts->global = std::move(global);
  }
  return m;
}

FlowMetrics run_fifty_percent_model_flow(const MacroLayout& ml,
                                         const FlowOptions& options) {
  // Paper's Table-3 comparator: take the two-layer solution and halve each
  // channel's track count at the metal1/2 pitch (optimistically ignoring
  // the coarser upper-layer rules). Only the area is meaningful.
  FlowMetrics m;
  m.flow_name = "50% track model";
  std::vector<int> all_nets;
  for (int n = 0; n < static_cast<int>(ml.nets().size()); ++n) {
    all_nets.push_back(n);
  }
  const LevelAOutcome a = route_level_a(ml, all_nets, options);
  const Coord pitch =
      ml.rules().channel_pitch(geom::Layer::kMetal1, geom::Layer::kMetal2);

  std::vector<Coord> heights(a.heights.size(), 0);
  for (std::size_t c = 0; c < a.routes.size(); ++c) {
    const int halved =
        mlchannel::fifty_percent_track_model(a.routes[c].num_tracks);
    const bool has_pins =
        a.global.channels[c].max_net() > 0;
    heights[c] = static_cast<Coord>(halved) * pitch +
                 (has_pins ? options.channel_margin : 0);
    m.total_channel_tracks += halved;
  }
  m.example_name = ml.name();
  m.flow_name = "50% track model";
  m.die_width = ml.die_width();
  m.die_height = ml.die_height(heights);
  m.layout_area = m.die_width * m.die_height;
  m.wire_length = a.wire_length;  // model adjusts area only
  m.vias = a.vias;
  m.levela_nets = static_cast<int>(all_nets.size());
  m.success = a.success;
  m.problems = a.problems;
  return m;
}

}  // namespace ocr::flow
