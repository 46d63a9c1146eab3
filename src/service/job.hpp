#pragma once
/// \file job.hpp
/// \brief The unit of work of the routing service: a validated job spec,
/// its materialized instance, and the per-job result.
///
/// A job travels through three stages:
///
/// 1. `io::JobRequest` (wire format) -> `spec_from_request` ->
///    **JobSpec** — validated per-job policy knobs (flow, partition,
///    threads, deadline, effort, fail policy, faults, manifest path);
/// 2. `materialize` -> **RoutingJob** — the spec plus the generated or
///    parsed MacroLayout, its net partition, the pre-route
///    RouteEstimate, and a per-job CancelSource;
/// 3. execution (service/executor.hpp) -> **JobResult** — the
///    flow::RunReport, queue/run wall times, and a per-job
///    MetricsSnapshot scoped to this job alone.
///
/// The CLI (`ocr_route`) shares stages 1-2 with the daemon so both front
/// ends construct byte-identical routing problems from the same knobs.

#include <chrono>
#include <string>
#include <vector>

#include "flow/run.hpp"
#include "floorplan/macro_layout.hpp"
#include "io/job_io.hpp"
#include "partition/partition.hpp"
#include "service/admission.hpp"
#include "util/cancel.hpp"
#include "util/metrics.hpp"
#include "util/status.hpp"

namespace ocr::service {

/// Validated per-job configuration (the policy knobs of one request).
struct JobSpec {
  std::string id;
  std::string example;  ///< built-in generator name; or
  std::string input;    ///< .oclay file path (exactly one non-empty)
  flow::FlowKind kind = flow::FlowKind::kOverCell;
  std::string partition = "class";
  int threads = 1;
  /// Parallel dispatch strategy when threads > 1: "sharded" or "auto"
  /// (serial-exact either way).
  std::string engine_mode = "sharded";
  flow::FailPolicy fail_policy = flow::FailPolicy::kDegrade;
  long long deadline_ms = 0;
  long long net_effort = 0;
  /// Fault-injection spec. "-" (the default) disarms injection for this
  /// job; jobs never inherit the daemon's OCR_FAULTS environment.
  std::string faults = "-";
  std::string manifest_path;
};

/// Validates a decoded request into a JobSpec (kInvalidArgument on bad
/// flow/partition/fail-policy/engine-mode names, missing or ambiguous
/// instance, negative knobs).
util::StatusOr<JobSpec> spec_from_request(const io::JobRequest& request);

/// Builds the MacroLayout a spec names: a bench_data generator for
/// `example`, an .oclay parse for `input` (lenient unless the job's fail
/// policy is abort — the same contract as the CLI). Parser warnings from
/// lenient mode are appended to \p warnings when non-null.
util::StatusOr<floorplan::MacroLayout> make_instance(
    const JobSpec& spec, std::vector<std::string>* warnings = nullptr);

/// Resolves a partition policy string ("class", "allb", "length=<dbu>")
/// against \p layout.
util::StatusOr<partition::NetPartition> make_partition(
    const std::string& policy, const netlist::Layout& layout);

/// A materialized, ready-to-execute job.
struct RoutingJob {
  JobSpec spec;
  floorplan::MacroLayout layout{"unmaterialized", 0};
  partition::NetPartition partition;
  RouteEstimate estimate;
  /// Per-job cancellation: the job's own watchdog fires it on deadline;
  /// it is never shared between jobs.
  util::CancelSource cancel;
  /// Set by JobExecutor::submit; queue_ms measures from here.
  std::chrono::steady_clock::time_point submitted{};
  /// Set when admission down-tiered the job (effort cap applied).
  bool downtiered = false;
  /// 0-based execution attempt; bumped by the executor on each retry
  /// (every retry also installs a fresh CancelSource — cancellation is
  /// sticky and must not leak across attempts).
  int attempt = 0;
  /// The raw request line (journal `accepted` record payload); empty
  /// when the job did not arrive over the wire.
  std::string request_line;
};

/// Materializes \p spec: builds the instance, assembles the zero-height
/// layout once, and derives both the net partition and the pre-route
/// estimate from it.
util::StatusOr<RoutingJob> materialize(const JobSpec& spec);

/// The flow::RunOptions a job's knobs translate to (flow kind, threads,
/// deadline, effort, fail policy, faults).
flow::RunOptions job_run_options(const RoutingJob& job);

/// Everything the service reports about one finished (or refused) job.
struct JobResult {
  std::string id;
  /// Admission refused the job; \p report is default-constructed and
  /// reject_reason explains why.
  bool rejected = false;
  util::Status reject_reason;
  bool downtiered = false;
  flow::RunReport report;
  long long queue_ms = 0;
  long long run_ms = 0;
  /// Execution attempts consumed (1 unless the retry policy re-ran it).
  int attempts = 1;
  /// Per-job metrics scope: the flow.* instruments this job alone
  /// produced (the global registry still accumulates across jobs).
  util::MetricsSnapshot metrics;
  /// Non-empty when a per-job manifest was written.
  std::string manifest_path;

  /// Service exit-class contract (mirrors the CLI exit codes):
  /// 0 clean, 1 failed, 2 rejected, 3 partial.
  int exit_class() const { return rejected ? 2 : report.exit_code(); }
  const char* status_name() const {
    return rejected ? "rejected" : flow::run_status_name(report.status);
  }
};

/// Renders a result as the wire response.
io::JobResponse to_response(const JobResult& result);

}  // namespace ocr::service
