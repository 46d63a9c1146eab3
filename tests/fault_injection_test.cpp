/// \file fault_injection_test.cpp
/// \brief Forces failures at every degradation-ladder rung through the
/// fault registry and asserts the router degrades instead of crashing:
/// rung 1 (serial re-route of faulted or failed batch searches), rung 2
/// (rip-up recovery), rung 3 (drop the net, keep the layout consistent).
/// Also covers flow::run's outcome classification and exit-code contract.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "bench_data/synthetic.hpp"
#include "engine/engine.hpp"
#include "flow/check.hpp"
#include "flow/flow.hpp"
#include "flow/run.hpp"
#include "partition/partition.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace ocr {
namespace {

using geom::Point;
using geom::Rect;

std::vector<levelb::BNet> random_nets(util::Rng& rng, geom::Coord size,
                                      int count) {
  std::vector<levelb::BNet> nets;
  for (int n = 0; n < count; ++n) {
    levelb::BNet net{n, {}};
    const int degree = static_cast<int>(rng.uniform_int(2, 4));
    for (int t = 0; t < degree; ++t) {
      net.terminals.push_back(
          Point{rng.uniform_int(0, size - 1), rng.uniform_int(0, size - 1)});
    }
    nets.push_back(std::move(net));
  }
  return nets;
}

levelb::LevelBResult route_instance(int threads, int nets = 60) {
  util::Rng rng(5);
  auto grid = tig::TrackGrid::uniform(Rect(0, 0, 1000, 1000), 9, 11);
  auto bnets = random_nets(rng, 1000, nets);
  engine::EngineOptions options;
  options.threads = threads;
  engine::RoutingEngine router(grid, options);
  return router.route(bnets);
}

/// Engine-level tests share the process-global registry; always disarm.
class FaultLadder : public ::testing::Test {
 protected:
  void TearDown() override { util::FaultRegistry::global().clear(); }

  levelb::LevelBResult route_with_stats(int threads,
                                        engine::EngineStats* stats,
                                        int ripup_rounds = 1) {
    util::Rng rng(5);
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, 1000, 1000), 9, 11);
    auto bnets = random_nets(rng, 1000, 60);
    engine::EngineOptions options;
    options.threads = threads;
    options.levelb.ripup_rounds = ripup_rounds;
    engine::RoutingEngine router(grid, options);
    levelb::LevelBResult result = router.route(bnets);
    *stats = router.stats();
    return result;
  }
};

/// Rung 1: a commit-validation fault re-routes the net serially on the
/// live grid, so the final wiring is bit-identical to the fault-free
/// serial run.
TEST_F(FaultLadder, CommitterFaultRungOneIsBitIdentical) {
  util::FaultRegistry::global().clear();
  const levelb::LevelBResult expected = route_instance(1);

  ASSERT_TRUE(util::FaultRegistry::global()
                  .configure("engine.committer.commit=~0.25;seed=3")
                  .ok());
  engine::EngineStats stats;
  const levelb::LevelBResult faulted = route_with_stats(4, &stats);
  EXPECT_GT(stats.fault_reroutes, 0);
  EXPECT_EQ(stats.fault_drops, 0);
  EXPECT_EQ(faulted, expected);
}

/// Rung 1 via a dying worker: a batch position a worker left unrouted
/// (worker fault) is recovered by a serial re-route — still bit-identical.
TEST_F(FaultLadder, WorkerFaultIsRecoveredSerially) {
  util::FaultRegistry::global().clear();
  const levelb::LevelBResult expected = route_instance(1);

  ASSERT_TRUE(util::FaultRegistry::global()
                  .configure("engine.worker.route=@3|11|27")
                  .ok());
  engine::EngineStats stats;
  const levelb::LevelBResult faulted = route_with_stats(4, &stats);
  EXPECT_GT(stats.worker_failures, 0);
  EXPECT_EQ(faulted, expected);
}

/// A worker task that throws at the pool boundary must not deadlock the
/// batch barrier or change the result.
TEST_F(FaultLadder, DyingPoolTaskDoesNotDeadlockOrDiverge) {
  util::FaultRegistry::global().clear();
  const levelb::LevelBResult expected = route_instance(1);

  ASSERT_TRUE(
      util::FaultRegistry::global().configure("util.pool.task=1").ok());
  engine::EngineStats stats;
  const levelb::LevelBResult faulted = route_with_stats(4, &stats);
  EXPECT_EQ(stats.pool_task_failures, 1);
  EXPECT_EQ(faulted, expected);
}

/// Rung 3: an apply fault drops the net — marked kFaultInjected, its
/// wiring cleared (no half-committed geometry), everything else routed.
TEST_F(FaultLadder, ApplyFaultDropsTheNetCleanly) {
  ASSERT_TRUE(util::FaultRegistry::global()
                  .configure("engine.committer.apply=3")
                  .ok());
  engine::EngineStats stats;
  // Rip-up disabled so the drop stays observable (a rip-up round would
  // likely re-route the dropped net into the space it freed).
  const levelb::LevelBResult faulted =
      route_with_stats(4, &stats, /*ripup_rounds=*/0);
  EXPECT_EQ(stats.fault_drops, 1);

  int dropped = 0;
  for (const levelb::NetResult& net : faulted.nets) {
    if (net.outcome == util::StatusKind::kFaultInjected) {
      ++dropped;
      EXPECT_FALSE(net.complete);
      EXPECT_TRUE(net.paths.empty());
      EXPECT_GT(net.failed_connections, 0);
    }
  }
  EXPECT_EQ(dropped, 1);
}

/// The serial router hits levelb.connect faults identically to the
/// parallel engine (the site is keyed by net id), so a faulted run is
/// still thread-count invariant.
TEST_F(FaultLadder, ConnectFaultIsThreadCountInvariant) {
  const auto faulted_route = [this](int threads) {
    EXPECT_TRUE(util::FaultRegistry::global()
                    .configure("levelb.connect=@7|19;seed=1")
                    .ok());
    engine::EngineStats stats;
    return route_with_stats(threads, &stats);
  };
  const levelb::LevelBResult serial = faulted_route(1);
  const levelb::LevelBResult parallel = faulted_route(4);
  EXPECT_EQ(serial, parallel);
}

/// Flow-level: forcing drops through the whole over-cell flow must leave
/// a layout that passes flow::check (dropped nets excluded), with the
/// expected unrouted set, classified "partial" under the degrade policy.
class FlowFaults : public ::testing::Test {
 protected:
  void TearDown() override { util::FaultRegistry::global().clear(); }

  static flow::RunReport run_ami33(const char* faults,
                                   flow::FailPolicy policy,
                                   flow::FlowArtifacts* artifacts,
                                   int threads = 4) {
    const auto ml =
        bench_data::generate_macro_layout(bench_data::ami33_spec());
    const auto zero = ml.assemble(
        std::vector<geom::Coord>(ml.num_channels(), 0));
    const auto partition = partition::partition_by_class(zero);
    flow::RunOptions options;
    options.flow.levelb_threads = threads;
    options.fail_policy = policy;
    options.faults = faults;
    options.artifacts = artifacts;
    return flow::run(ml, partition, options);
  }
};

TEST_F(FlowFaults, CleanRunIsCleanWithExitCodeZero) {
  flow::FlowArtifacts artifacts;
  const flow::RunReport report =
      run_ami33("-", flow::FailPolicy::kDegrade, &artifacts);
  EXPECT_EQ(report.status, flow::RunStatus::kClean);
  EXPECT_EQ(report.exit_code(), 0);
  EXPECT_TRUE(report.error.ok());
  EXPECT_EQ(report.metrics.unrouted_nets, 0);
  EXPECT_TRUE(flow::check_over_cell_result(artifacts).empty());
}

TEST_F(FlowFaults, DroppedNetsDegradeToPartialWithCleanLayout) {
  flow::FlowArtifacts artifacts;
  const flow::RunReport report = run_ami33(
      "engine.committer.apply=~0.05;seed=2", flow::FailPolicy::kDegrade,
      &artifacts);
  const flow::FlowMetrics& m = report.metrics;
  ASSERT_GT(m.degrade_fault_drops, 0);
  EXPECT_EQ(report.status, flow::RunStatus::kPartial);
  EXPECT_EQ(report.exit_code(), 3);
  EXPECT_GE(m.unrouted_nets,
            static_cast<int>(m.degrade_fault_drops) - m.degrade_ripup_recovered);
  EXPECT_EQ(m.faults_injected, m.degrade_fault_drops);

  // The surviving layout stays consistent: every routed net connected,
  // no overlaps — the dropped nets' wiring is gone, not half-applied.
  EXPECT_TRUE(flow::check_over_cell_result(artifacts).empty());

  // The unrouted set is exactly the nets marked by the ladder.
  std::set<int> expected_unrouted;
  for (const levelb::NetResult& net : artifacts.levelb.nets) {
    if (!net.complete) expected_unrouted.insert(net.id);
  }
  EXPECT_EQ(static_cast<int>(expected_unrouted.size()), m.unrouted_nets);
}

TEST_F(FlowFaults, AbortPolicyTurnsDegradationIntoFailure) {
  flow::FlowArtifacts artifacts;
  const flow::RunReport report = run_ami33(
      "engine.committer.apply=~0.05;seed=2", flow::FailPolicy::kAbort,
      &artifacts);
  ASSERT_GT(report.metrics.degrade_fault_drops, 0);
  EXPECT_EQ(report.status, flow::RunStatus::kFailed);
  EXPECT_EQ(report.exit_code(), 1);
  EXPECT_FALSE(report.error.ok());
}

TEST_F(FlowFaults, PartialPolicySkipsRipupButStaysConsistent) {
  flow::FlowArtifacts artifacts;
  const flow::RunReport report =
      run_ami33("levelb.connect=@5", flow::FailPolicy::kPartial, &artifacts);
  const flow::FlowMetrics& m = report.metrics;
  EXPECT_EQ(report.status, flow::RunStatus::kPartial);
  EXPECT_EQ(report.exit_code(), 3);
  EXPECT_EQ(m.degrade_ripup_recovered, 0);
  EXPECT_GE(m.unrouted_nets, 1);
  EXPECT_TRUE(flow::check_over_cell_result(artifacts).empty());
}

/// Rung 1 faults never surface to the flow outcome: re-routed commits
/// keep the run clean and bit-identical to the serial fault-free flow.
TEST_F(FlowFaults, RungOneFaultsKeepTheFlowClean) {
  flow::FlowArtifacts clean_artifacts;
  const flow::RunReport clean =
      run_ami33("-", flow::FailPolicy::kDegrade, &clean_artifacts, 1);
  ASSERT_EQ(clean.status, flow::RunStatus::kClean);

  flow::FlowArtifacts artifacts;
  const flow::RunReport report = run_ami33(
      "engine.committer.commit=~0.2;seed=4", flow::FailPolicy::kDegrade,
      &artifacts);
  ASSERT_GT(report.metrics.degrade_fault_reroutes, 0);
  EXPECT_EQ(report.status, flow::RunStatus::kClean);
  EXPECT_EQ(report.exit_code(), 0);
  EXPECT_EQ(artifacts.levelb, clean_artifacts.levelb);
}

TEST_F(FlowFaults, BadFaultSpecFailsTheRunUpFront) {
  flow::FlowArtifacts artifacts;
  const flow::RunReport report =
      run_ami33("not a spec", flow::FailPolicy::kDegrade, &artifacts);
  EXPECT_EQ(report.status, flow::RunStatus::kFailed);
  EXPECT_EQ(report.exit_code(), 1);
  EXPECT_EQ(report.error.kind(), util::StatusKind::kInvalidArgument);
}

}  // namespace
}  // namespace ocr
