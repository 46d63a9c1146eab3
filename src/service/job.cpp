#include "service/job.hpp"

#include <cstdlib>
#include <utility>

#include "bench_data/synthetic.hpp"
#include "engine/engine.hpp"
#include "io/layout_io.hpp"
#include "util/str.hpp"

namespace ocr::service {

using util::Status;
using util::StatusOr;

StatusOr<JobSpec> spec_from_request(const io::JobRequest& request) {
  JobSpec spec;
  spec.id = request.id;
  spec.example = request.example;
  spec.input = request.input;
  if (spec.example.empty() == spec.input.empty()) {
    return Status::invalid_argument(
               "exactly one of 'example' / 'input' is required")
        .with_stage("job");
  }

  if (request.flow == "overcell") {
    spec.kind = flow::FlowKind::kOverCell;
  } else if (request.flow == "2layer") {
    spec.kind = flow::FlowKind::kTwoLayer;
  } else if (request.flow == "4layer") {
    spec.kind = flow::FlowKind::kFourLayer;
  } else if (request.flow == "50pct") {
    spec.kind = flow::FlowKind::kFiftyPercent;
  } else {
    return Status::invalid_argument("unknown flow '" + request.flow + "'")
        .with_stage("job");
  }

  spec.partition = request.partition;
  if (spec.partition != "class" && spec.partition != "allb" &&
      !util::starts_with(spec.partition, "length=")) {
    return Status::invalid_argument("unknown partition '" + spec.partition +
                                    "'")
        .with_stage("job");
  }

  if (request.fail_policy == "abort") {
    spec.fail_policy = flow::FailPolicy::kAbort;
  } else if (request.fail_policy == "degrade") {
    spec.fail_policy = flow::FailPolicy::kDegrade;
  } else if (request.fail_policy == "partial") {
    spec.fail_policy = flow::FailPolicy::kPartial;
  } else {
    return Status::invalid_argument("unknown fail policy '" +
                                    request.fail_policy + "'")
        .with_stage("job");
  }

  if (request.threads < 0) {
    return Status::invalid_argument("threads must be >= 0").with_stage("job");
  }
  const StatusOr<engine::EngineMode> mode =
      engine::parse_engine_mode(request.engine_mode);
  if (!mode.ok()) return Status(mode.status()).with_stage("job");
  spec.engine_mode = request.engine_mode;
  if (request.deadline_ms < 0 || request.net_effort < 0) {
    return Status::invalid_argument("deadline_ms / net_effort must be >= 0")
        .with_stage("job");
  }
  spec.threads = request.threads;
  spec.deadline_ms = request.deadline_ms;
  spec.net_effort = request.net_effort;
  spec.faults = request.faults;
  spec.manifest_path = request.manifest;
  return spec;
}

StatusOr<floorplan::MacroLayout> make_instance(
    const JobSpec& spec, std::vector<std::string>* warnings) {
  if (!spec.input.empty()) {
    io::ParseOptions options;
    options.lenient = spec.fail_policy != flow::FailPolicy::kAbort;
    io::ParseResult parsed = io::load_layout(spec.input, options);
    if (!parsed.ok()) {
      return parsed.status.ok()
                 ? Status::io_error(parsed.error).with_stage("job")
                 : parsed.status;
    }
    if (warnings != nullptr) {
      warnings->insert(warnings->end(), parsed.warnings.begin(),
                       parsed.warnings.end());
    }
    return std::move(*parsed.layout);
  }
  if (spec.example == "ami33") {
    return bench_data::generate_macro_layout(bench_data::ami33_spec());
  }
  if (spec.example == "xerox" || spec.example == "Xerox") {
    return bench_data::generate_macro_layout(bench_data::xerox_spec());
  }
  if (spec.example == "ex3") {
    return bench_data::generate_macro_layout(bench_data::ex3_spec());
  }
  if (util::starts_with(spec.example, "random")) {
    std::uint64_t seed = 1;
    const auto colon = spec.example.find(':');
    if (colon != std::string::npos) {
      seed = std::strtoull(spec.example.c_str() + colon + 1, nullptr, 10);
    }
    return bench_data::generate_macro_layout(bench_data::random_spec(seed));
  }
  return Status::invalid_argument("unknown example '" + spec.example + "'")
      .with_stage("job");
}

StatusOr<partition::NetPartition> make_partition(
    const std::string& policy, const netlist::Layout& layout) {
  if (policy == "class") {
    return partition::partition_by_class(layout);
  }
  if (policy == "allb") {
    return partition::partition_all_b(layout);
  }
  if (util::starts_with(policy, "length=")) {
    const geom::Coord threshold =
        std::strtoll(policy.c_str() + 7, nullptr, 10);
    return partition::partition_by_length(layout, threshold);
  }
  return Status::invalid_argument("unknown partition '" + policy + "'")
      .with_stage("job");
}

StatusOr<RoutingJob> materialize(const JobSpec& spec) {
  StatusOr<floorplan::MacroLayout> instance = make_instance(spec);
  if (!instance.ok()) return instance.status();

  RoutingJob job;
  job.spec = spec;
  job.layout = std::move(instance).value();

  // One zero-height assembly feeds both the partition policy and the
  // pre-route estimate (non-overcell flows still benefit from the
  // estimate for admission, so it is always computed).
  const netlist::Layout zero = job.layout.assemble(std::vector<geom::Coord>(
      static_cast<std::size_t>(job.layout.num_channels()), 0));
  job.estimate = estimate_route(job.layout, zero);
  if (spec.kind == flow::FlowKind::kOverCell) {
    StatusOr<partition::NetPartition> part =
        make_partition(spec.partition, zero);
    if (!part.ok()) return part.status();
    job.partition = std::move(part).value();
  }
  return job;
}

flow::RunOptions job_run_options(const RoutingJob& job) {
  flow::RunOptions options;
  options.kind = job.spec.kind;
  options.flow.levelb_threads = job.spec.threads;
  options.flow.levelb_engine_mode = job.spec.engine_mode;
  options.fail_policy = job.spec.fail_policy;
  options.deadline_ms = job.spec.deadline_ms;
  options.net_effort = job.spec.net_effort;
  options.faults = job.spec.faults;
  return options;
}

io::JobResponse to_response(const JobResult& result) {
  io::JobResponse response;
  response.id = result.id;
  response.status = result.status_name();
  response.exit_class = result.exit_class();
  response.queue_ms = result.queue_ms;
  response.run_ms = result.run_ms;
  const flow::FlowMetrics& m = result.report.metrics;
  response.wire_length = m.wire_length;
  response.vias = m.vias;
  response.unrouted_nets = m.unrouted_nets;
  response.cancelled_nets = m.cancelled_nets;
  response.deadline_fired = result.report.deadline_fired;
  response.faults_injected = m.faults_injected;
  response.attempts = result.attempts;
  if (result.rejected) {
    response.error = result.reject_reason.to_string();
  } else if (!result.report.error.ok()) {
    response.error = result.report.error.to_string();
  }
  response.manifest = result.manifest_path;
  return response;
}

}  // namespace ocr::service
