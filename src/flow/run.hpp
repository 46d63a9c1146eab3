#pragma once
/// \file run.hpp
/// \brief Fault-tolerant flow orchestrator: wraps the routing flows in
/// deadlines, effort budgets, fault injection and a degradation ladder.
///
/// `flow::run` is what `ocr_route` calls. It owns the run-wide
/// CancelSource, starts the engine watchdog when a deadline is set,
/// threads budgets/tokens into the level-B options, arms the fault
/// registry, and classifies the outcome:
///
/// * **clean**   — every net routed, no problems (exit code 0);
/// * **partial** — the layout is usable but degraded: some nets are
///   unrouted, cancelled, budget-stopped or fault-dropped (exit code 3);
/// * **failed**  — a hard failure, or any problem under the `abort`
///   fail-policy (exit code 1).
///
/// The degradation ladder (policy `degrade`) is: a failed or faulted batch
/// search -> serial re-route on the live grid -> rip-up round -> mark
/// the net unrouted and continue. Every downgrade is counted in
/// FlowMetrics and, when a TraceSink is attached, emitted as a
/// "degrade" trace event.

#include <string>

#include "flow/flow.hpp"
#include "util/metrics.hpp"
#include "util/status.hpp"
#include "util/trace.hpp"

namespace ocr::flow {

/// Which flow to orchestrate (the four Table-2/3 columns).
enum class FlowKind {
  kOverCell,      ///< run_over_cell_flow (the paper's methodology)
  kTwoLayer,      ///< run_two_layer_flow baseline
  kFourLayer,     ///< run_four_layer_channel_flow baseline
  kFiftyPercent,  ///< run_fifty_percent_model_flow model
};

/// What to do when nets fail or faults fire.
enum class FailPolicy {
  kAbort,    ///< any problem fails the run (exit 1); no recovery rungs
  kDegrade,  ///< full ladder: serial re-route, rip-up, then mark & go on
  kPartial,  ///< mark-and-continue: no rip-up recovery, report partial
};

/// Outcome classification; exit_code() maps it for tools.
enum class RunStatus { kClean, kPartial, kFailed };

const char* fail_policy_name(FailPolicy policy);
const char* run_status_name(RunStatus status);
/// "overcell", "2layer", "4layer" or "50pct" — the CLI/JSONL spellings.
const char* flow_kind_name(FlowKind kind);

struct RunOptions {
  FlowOptions flow;
  FlowKind kind = FlowKind::kOverCell;
  FailPolicy fail_policy = FailPolicy::kDegrade;
  /// Wall-clock deadline for the whole run in ms; 0 = none. Enforced by
  /// an engine::Watchdog through the run's cancel token; the run
  /// terminates well within 2x this value at any thread count.
  long long deadline_ms = 0;
  /// Per-net vertex-expansion budget (levelb net_vertex_budget); 0 =
  /// unlimited.
  long long net_effort = 0;
  /// Fault-injection spec (util/fault.hpp grammar). Empty = read the
  /// OCR_FAULTS environment variable; "-" = force-disable injection.
  std::string faults;
  /// Trace sink for flow + degradation events (also wired into levelb).
  util::TraceSink* trace = nullptr;
  /// When set, the flow fills detailed artifacts (visualization, checks).
  FlowArtifacts* artifacts = nullptr;
};

struct RunReport {
  FlowMetrics metrics;
  RunStatus status = RunStatus::kClean;
  /// Primary failure (or cancellation reason); OK when clean.
  util::Status error;
  /// Whether the deadline watchdog fired.
  bool deadline_fired = false;

  /// Process exit code contract: 0 clean, 1 failed, 3 partial (2 is
  /// reserved for usage errors in tools).
  int exit_code() const;
};

/// Orchestrates one routing run. \p partition is only consulted by the
/// over-cell flow.
///
/// This is a thin single-job wrapper over `service::execute_run`
/// (src/service/executor.hpp) — the CLI and the `ocr_served` daemon
/// share that one execution path. The implementation lives in
/// `ocr_service` (src/service/run.cpp); callers must link it.
RunReport run(const floorplan::MacroLayout& ml,
              const partition::NetPartition& partition,
              const RunOptions& options);

/// Publishes every FlowMetrics quantity into \p registry under `flow.*`
/// names (gauges for per-run results, counters for cumulative event
/// counts — see docs/OBSERVABILITY.md for the catalog). flow::run calls
/// this on every report; exposed so tests and tools can publish metrics
/// they computed through the flow functions directly.
void publish_metrics(const FlowMetrics& metrics,
                     util::MetricsRegistry& registry =
                         util::MetricsRegistry::global());

}  // namespace ocr::flow
