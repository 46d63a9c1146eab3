/// \file flow_engine_test.cpp
/// \brief Flow-level engine determinism: the full over-cell flow (the
/// paper's Figure-3 style macro instances) must produce identical wiring
/// and metrics for any level-B thread count, and surface the engine's
/// observability counters in FlowMetrics.

#include <gtest/gtest.h>

#include "bench_data/synthetic.hpp"
#include "flow/flow.hpp"
#include "partition/partition.hpp"
#include "report/tables.hpp"
#include "util/trace.hpp"

namespace ocr::flow {
namespace {

partition::NetPartition class_partition(const floorplan::MacroLayout& ml) {
  const auto layout =
      ml.assemble(std::vector<geom::Coord>(ml.num_channels(), 0));
  return partition::partition_by_class(layout);
}

void expect_same_metrics(const FlowMetrics& a, const FlowMetrics& b) {
  EXPECT_EQ(a.layout_area, b.layout_area);
  EXPECT_EQ(a.wire_length, b.wire_length);
  EXPECT_EQ(a.vias, b.vias);
  EXPECT_EQ(a.total_channel_tracks, b.total_channel_tracks);
  EXPECT_EQ(a.levelb_completion, b.levelb_completion);
  EXPECT_EQ(a.levelb_vertices, b.levelb_vertices);
  EXPECT_EQ(a.success, b.success);
}

TEST(FlowEngine, Ami33OverCellIsThreadCountInvariant) {
  const auto ml =
      bench_data::generate_macro_layout(bench_data::ami33_spec());
  const auto partition = class_partition(ml);

  FlowArtifacts serial_artifacts;
  const FlowMetrics serial =
      run_over_cell_flow(ml, partition, FlowOptions{}, &serial_artifacts);
  ASSERT_TRUE(serial.success);
  EXPECT_EQ(serial.levelb_threads, 1);

  for (int threads : {2, 4, 8}) {
    FlowOptions options;
    options.levelb_threads = threads;
    FlowArtifacts artifacts;
    const FlowMetrics parallel =
        run_over_cell_flow(ml, partition, options, &artifacts);
    expect_same_metrics(serial, parallel);
    EXPECT_EQ(parallel.levelb_threads, threads);
    EXPECT_EQ(parallel.levelb_engine_mode, "sharded");
    EXPECT_EQ(parallel.levelb_sharded_commits + parallel.levelb_boundary_nets,
              static_cast<long long>(parallel.levelb_nets));
    // The committed level-B wiring itself must be bit-identical.
    EXPECT_EQ(artifacts.levelb, serial_artifacts.levelb)
        << "threads=" << threads;
  }
}

TEST(FlowEngine, RandomInstanceMatchesAcrossThreads) {
  const auto ml =
      bench_data::generate_macro_layout(bench_data::random_spec(42, 0.4));
  const auto partition = class_partition(ml);
  const FlowMetrics serial = run_over_cell_flow(ml, partition);
  FlowOptions options;
  options.levelb_threads = 4;
  expect_same_metrics(serial, run_over_cell_flow(ml, partition, options));
}

TEST(FlowEngine, TraceFlowsThroughFlowOptions) {
  const auto ml =
      bench_data::generate_macro_layout(bench_data::random_spec(42, 0.4));
  const auto partition = class_partition(ml);
  util::TraceSink trace;
  FlowOptions options;
  options.levelb_threads = 2;
  options.levelb.trace = &trace;
  const FlowMetrics m = run_over_cell_flow(ml, partition, options);
  // One "net" event per net plus the run-level "engine" totals event
  // (parallel runs only).
  EXPECT_EQ(trace.size(), static_cast<std::size_t>(m.levelb_nets) + 1);
}

TEST(FlowEngine, EngineSummaryRendersCounters) {
  const auto ml =
      bench_data::generate_macro_layout(bench_data::random_spec(42, 0.4));
  const auto partition = class_partition(ml);
  FlowOptions options;
  options.levelb_threads = 2;
  const FlowMetrics m = run_over_cell_flow(ml, partition, options);
  const std::string table = report::render_engine_summary({m});
  EXPECT_NE(table.find("Engine summary"), std::string::npos);
  EXPECT_NE(table.find("Threads"), std::string::npos);
  EXPECT_NE(table.find("2"), std::string::npos);
}

}  // namespace
}  // namespace ocr::flow
