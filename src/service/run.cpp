/// \file run.cpp
/// \brief The single-job execution path (service::execute_run) and the
/// thin flow::run wrapper over it.
///
/// This used to be src/flow/run.cpp, a monolithic orchestrator only the
/// CLI could call. The body now lives in service::execute_run with the
/// CancelSource and metrics scope injected, so the JobExecutor workers
/// (daemon) and flow::run (CLI, tests) execute jobs through one code
/// path; flow::run is a wrapper that owns a fresh CancelSource and skips
/// the per-job metrics scope.

#include "flow/run.hpp"

#include <chrono>
#include <utility>

#include "engine/watchdog.hpp"
#include "service/executor.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace ocr {
namespace {

using util::Status;

/// Arms the fault registry per RunOptions::faults. Returns the fired
/// count baseline so the report can count only this run's faults.
Status arm_faults(const flow::RunOptions& options, long long& baseline) {
  util::FaultRegistry& registry = util::FaultRegistry::global();
  Status status;
  if (options.faults == "-") {
    registry.clear();
  } else if (!options.faults.empty()) {
    status = registry.configure(options.faults);
  } else {
    status = registry.configure_from_env();
  }
  baseline = registry.fired_count();
  return status;
}

}  // namespace

namespace flow {

const char* fail_policy_name(FailPolicy policy) {
  switch (policy) {
    case FailPolicy::kAbort:
      return "abort";
    case FailPolicy::kDegrade:
      return "degrade";
    case FailPolicy::kPartial:
      return "partial";
  }
  return "unknown";
}

const char* run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kClean:
      return "clean";
    case RunStatus::kPartial:
      return "partial";
    case RunStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

const char* flow_kind_name(FlowKind kind) {
  switch (kind) {
    case FlowKind::kOverCell:
      return "overcell";
    case FlowKind::kTwoLayer:
      return "2layer";
    case FlowKind::kFourLayer:
      return "4layer";
    case FlowKind::kFiftyPercent:
      return "50pct";
  }
  return "unknown";
}

int RunReport::exit_code() const {
  switch (status) {
    case RunStatus::kClean:
      return 0;
    case RunStatus::kPartial:
      return 3;
    case RunStatus::kFailed:
      return 1;
  }
  return 1;
}

RunReport run(const floorplan::MacroLayout& ml,
              const partition::NetPartition& partition,
              const RunOptions& options) {
  util::CancelSource source;
  return service::execute_run(ml, partition, options, source);
}

void publish_metrics(const FlowMetrics& m, util::MetricsRegistry& registry) {
  registry.counter("flow.runs").add();

  // Per-run results: last run wins (gauges).
  registry.gauge("flow.success").set(m.success ? 1 : 0);
  registry.gauge("flow.die_width").set(m.die_width);
  registry.gauge("flow.die_height").set(m.die_height);
  registry.gauge("flow.layout_area").set(m.layout_area);
  registry.gauge("flow.wire_length").set(m.wire_length);
  registry.gauge("flow.vias").set(m.vias);
  registry.gauge("flow.total_channel_tracks").set(m.total_channel_tracks);
  registry.gauge("flow.levela_nets").set(m.levela_nets);
  registry.gauge("flow.levelb_nets").set(m.levelb_nets);
  registry.gauge("flow.levelb_completion_permille")
      .set(static_cast<long long>(m.levelb_completion * 1000.0 + 0.5));
  registry.gauge("flow.levelb_threads").set(m.levelb_threads);
  registry.gauge("flow.problems").set(
      static_cast<long long>(m.problems.size()));
  // Memory high-water marks: both gauges by nature (ru_maxrss is already
  // monotonic over the process; grid bytes describe the last run's grid).
  registry.gauge("flow.peak_rss_kb").set(m.peak_rss_kb);
  registry.gauge("tig.grid_bytes").set(m.tig_grid_bytes);

  // Cumulative effort and degradation counts: accumulate across runs in
  // one process (counters).
  registry.counter("flow.levelb_vertices").add(m.levelb_vertices);
  registry.counter("flow.levelb_batches").add(m.levelb_batches);
  registry.counter("flow.levelb_boundary_nets").add(m.levelb_boundary_nets);
  registry.counter("flow.levelb_sharded_commits")
      .add(m.levelb_sharded_commits);
  registry.counter("flow.levelb_sharded_wasted_vertices")
      .add(m.levelb_sharded_wasted_vertices);
  registry.counter("flow.levelb_sharded_wasted_search_us")
      .add(m.levelb_sharded_wasted_search_us);
  registry.counter("flow.degrade_fault_reroutes")
      .add(m.degrade_fault_reroutes);
  registry.counter("flow.degrade_ripup_recovered")
      .add(m.degrade_ripup_recovered);
  registry.counter("flow.degrade_fault_drops").add(m.degrade_fault_drops);
  registry.counter("flow.unrouted_nets").add(m.unrouted_nets);
  registry.counter("flow.cancelled_nets").add(m.cancelled_nets);
  registry.counter("flow.budget_nets").add(m.budget_nets);
  registry.counter("flow.pool_task_failures").add(m.pool_task_failures);
  registry.counter("flow.faults_injected").add(m.faults_injected);
}

}  // namespace flow

namespace service {

flow::RunReport execute_run(const floorplan::MacroLayout& ml,
                            const partition::NetPartition& partition,
                            const flow::RunOptions& options,
                            util::CancelSource& source,
                            util::MetricsRegistry* job_registry) {
  using flow::FailPolicy;
  using flow::FlowKind;
  using flow::FlowMetrics;
  using flow::RunReport;
  using flow::RunStatus;

  RunReport report;

  long long fault_baseline = 0;
  const Status fault_status = arm_faults(options, fault_baseline);
  if (!fault_status.ok()) {
    report.status = RunStatus::kFailed;
    report.error = fault_status;
    return report;
  }

  flow::FlowOptions flow_options = options.flow;
  flow_options.levelb.trace = options.trace;
  flow_options.levelb.net_vertex_budget = options.net_effort;
  if (options.fail_policy == FailPolicy::kPartial) {
    // Mark-and-continue: no rip-up recovery rung, failures go straight
    // to "unrouted". (Validation-failure serial re-routes always stay —
    // they are a correctness requirement, not a recovery step.)
    flow_options.levelb.ripup_rounds = 0;
  }

  // The job-wide cancel source: the watchdog fires it on deadline, the
  // MBFS loops and the level-A channel loop observe it. The source is
  // injected per job, so one job's cancellation never touches another.
  flow_options.levelb.finder.cancel = source.token();

  {
    engine::Watchdog::Options wopt;
    wopt.deadline = std::chrono::milliseconds(
        options.deadline_ms > 0 ? options.deadline_ms : 0);
    engine::Watchdog watchdog(source, wopt);

    switch (options.kind) {
      case FlowKind::kOverCell:
        report.metrics = flow::run_over_cell_flow(ml, partition, flow_options,
                                                  options.artifacts);
        break;
      case FlowKind::kTwoLayer:
        report.metrics =
            flow::run_two_layer_flow(ml, flow_options, options.artifacts);
        break;
      case FlowKind::kFourLayer:
        report.metrics = flow::run_four_layer_channel_flow(
            ml, flow_options, options.artifacts);
        break;
      case FlowKind::kFiftyPercent:
        report.metrics = flow::run_fifty_percent_model_flow(ml, flow_options);
        break;
    }
    report.deadline_fired = watchdog.fired();
  }  // joins the watchdog before classifying

  FlowMetrics& m = report.metrics;
  m.faults_injected =
      util::FaultRegistry::global().fired_count() - fault_baseline;

  // Classify. "Degraded but usable" means level A hard-failed nothing
  // and the only problems are unrouted/cancelled/dropped level-B nets.
  const bool degraded = m.unrouted_nets > 0 || m.degrade_fault_drops > 0 ||
                        source.cancelled();
  if (!m.success) {
    report.status = RunStatus::kFailed;
    report.error = source.cancelled()
                       ? source.reason()
                       : Status::internal(m.problems.empty()
                                              ? "flow failed"
                                              : m.problems.front())
                             .with_stage("flow");
  } else if (degraded) {
    if (options.fail_policy == FailPolicy::kAbort) {
      report.status = RunStatus::kFailed;
      report.error =
          source.cancelled()
              ? source.reason()
              : Status::unroutable(m.problems.empty() ? "nets unrouted"
                                                      : m.problems.front())
                    .with_stage("flow");
    } else {
      report.status = RunStatus::kPartial;
      if (source.cancelled()) report.error = source.reason();
    }
  } else {
    report.status = RunStatus::kClean;
  }

  if (options.trace != nullptr) {
    util::TraceEvent ev("degrade");
    ev.add("status", flow::run_status_name(report.status))
        .add("fail_policy", flow::fail_policy_name(options.fail_policy))
        .add("fault_reroutes", m.degrade_fault_reroutes)
        .add("ripup_recovered", m.degrade_ripup_recovered)
        .add("fault_drops", m.degrade_fault_drops)
        .add("unrouted_nets", m.unrouted_nets)
        .add("cancelled_nets", m.cancelled_nets)
        .add("budget_nets", m.budget_nets)
        .add("pool_task_failures", m.pool_task_failures)
        .add("faults_injected", m.faults_injected)
        .add("deadline_fired", report.deadline_fired);
    options.trace->record(std::move(ev));
  }
  if (report.deadline_fired) {
    OCR_WARN() << "routing run hit its deadline: "
               << source.reason().to_string();
  }

  // Publish into the global registry (cross-job totals) and, when the
  // executor provided one, into the per-job scope as well.
  const auto publish_to = [&](util::MetricsRegistry& registry) {
    flow::publish_metrics(report.metrics, registry);
    registry.gauge("flow.status").set(static_cast<long long>(report.status));
    if (report.deadline_fired) registry.counter("flow.deadline_fired").add();
  };
  publish_to(util::MetricsRegistry::global());
  if (job_registry != nullptr) publish_to(*job_registry);

  return report;
}

}  // namespace service
}  // namespace ocr
