#pragma once
/// \file tables.hpp
/// \brief Renders the paper's tables from flow metrics.

#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "netlist/stats.hpp"
#include "util/metrics.hpp"

namespace ocr::report {

/// One benchmark example's inputs for Table 1.
struct Table1Row {
  netlist::LayoutStats stats;
  netlist::SubsetStats level_a;  ///< the paper's level-A partition
};

/// Table 1: information about the layout examples (cells, nets, pins,
/// level-A nets and their average pins per net).
std::string render_table1(const std::vector<Table1Row>& rows);

/// Table 2: percent reductions of the over-cell flow vs the two-layer
/// channel flow in layout area, wire length and vias.
struct Table2Row {
  flow::FlowMetrics baseline;  ///< two-layer channel flow
  flow::FlowMetrics proposed;  ///< over-cell flow
};
std::string render_table2(const std::vector<Table2Row>& rows);

/// Table 3: absolute layout areas — 4-layer channel router (both the
/// paper's 50% model and the real layer-pair router) vs the over-cell
/// router, with the further percent reduction.
struct Table3Row {
  flow::FlowMetrics fifty_percent_model;
  flow::FlowMetrics four_layer_channel;
  flow::FlowMetrics over_cell;
};
std::string render_table3(const std::vector<Table3Row>& rows);

/// Engine summary: level-B routing-engine effort per flow run (worker
/// threads, MBFS vertices, shard batches, batch commits vs boundary
/// re-routes, completion).
/// Rows without level-B nets are skipped.
std::string render_engine_summary(const std::vector<flow::FlowMetrics>& rows);

/// Human-readable dump of a metrics snapshot: counters and gauges as
/// name/value rows, histograms as name/count/sum plus a compact
/// per-bucket breakdown. `ocr_route --verbose` prints this after a run.
std::string render_metrics_summary(const util::MetricsSnapshot& snapshot);

}  // namespace ocr::report
