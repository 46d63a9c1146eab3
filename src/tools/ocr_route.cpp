/// \file ocr_route.cpp
/// \brief Command-line driver for the over-cell routing flows.
///
/// Examples:
///   ocr_route --example ami33                      # proposed flow
///   ocr_route --example ex3 --flow 2layer          # baseline
///   ocr_route --input chip.oclay --svg routed.svg  # your own instance
///   ocr_route --example xerox --partition length=2000
///   ocr_route --example ami33 --save ami33.oclay   # export the instance

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "engine/engine.hpp"
#include "flow/flow.hpp"
#include "flow/check.hpp"
#include "flow/run.hpp"
#include "io/layout_io.hpp"
#include "io/route_io.hpp"
#include "partition/partition.hpp"
#include "service/job.hpp"
#include "report/tables.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/manifest.hpp"
#include "util/metrics.hpp"
#include "util/profile.hpp"
#include "util/str.hpp"
#include "util/trace.hpp"
#include "viz/svg.hpp"

namespace {

using namespace ocr;

void usage() {
  std::puts(
      "usage: ocr_route (--example ami33|xerox|ex3|random[:seed] | "
      "--input FILE)\n"
      "                 [--flow overcell|2layer|4layer|50pct]\n"
      "                 [--partition class|length=<dbu>|allb]\n"
      "                 [--svg FILE] [--save FILE] [--wiring FILE] [--check]\n"
      "                 [--threads N] [--engine-mode sharded|auto]\n"
      "                 [--trace FILE] [--verbose]\n"
      "                 [--profile FILE] [--metrics-json FILE]\n"
      "                 [--manifest FILE]\n"
      "                 [--deadline-ms N] [--net-effort N]\n"
      "                 [--fail-policy abort|degrade|partial] [--faults SPEC]\n"
      "\n"
      "Flows: overcell = the paper's two-level methodology (default);\n"
      "       2layer   = all nets channel-routed on metal1/2;\n"
      "       4layer   = all nets via the multilayer channel router;\n"
      "       50pct    = the paper's optimistic Table-3 area model.\n"
      "Partitions (overcell flow only): class = critical/clock/power nets\n"
      "to level A (default); length=<dbu> = nets with half-perimeter <=\n"
      "dbu to level A; allb = everything over-cell.\n"
      "--threads N routes level B with N engine workers (0 = one per\n"
      "hardware thread; results are identical for any N). --engine-mode\n"
      "picks the parallel dispatch: sharded (default) routes batches of\n"
      "geometrically disjoint nets in parallel; auto plans the shard\n"
      "schedule and routes serially when batches are too short. Both are\n"
      "bit-identical to --threads 1. --trace FILE writes per-net engine\n"
      "trace events as JSON.\n"
      "\n"
      "Observability (docs/OBSERVABILITY.md): --profile FILE writes a\n"
      "Chrome trace-event JSON of stage and engine spans (open it at\n"
      "https://ui.perfetto.dev); --metrics-json FILE dumps the metrics\n"
      "registry snapshot; --manifest FILE writes the run manifest\n"
      "(config + provenance + stage times + metrics + outcome).\n"
      "\n"
      "Robustness: --deadline-ms N cancels the run after N wall-clock ms\n"
      "(cancelled nets are reported unrouted); --net-effort N caps each\n"
      "net's search at N vertex expansions; --fail-policy picks what a\n"
      "failure means: abort = any problem exits 1, degrade (default) =\n"
      "serial re-route -> rip-up -> mark unrouted, partial = mark\n"
      "unrouted immediately. --faults SPEC arms the fault-injection\n"
      "registry (see util/fault.hpp; also via OCR_FAULTS env).\n"
      "Exit codes: 0 = clean, 1 = failed, 2 = usage, 3 = partial.");
}

struct Args {
  std::string example;
  std::string input;
  std::string flow = "overcell";
  std::string partition = "class";
  std::string svg;
  std::string save;
  std::string wiring;
  std::string trace;
  std::string profile;
  std::string metrics_json;
  std::string manifest;
  int threads = 1;
  std::string engine_mode = "sharded";
  bool verbose = false;
  bool check = false;
  long long deadline_ms = 0;
  long long net_effort = 0;
  flow::FailPolicy fail_policy = flow::FailPolicy::kDegrade;
  std::string faults;
};

/// Upper bound of --threads: a pool this size is already far past any
/// host's hardware threads.
constexpr long long kMaxThreads = 256;

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    // The flag's value as an integer in [lo, hi]; a missing, malformed or
    // out-of-range value is a usage error.
    const auto int_value = [&](long long lo,
                               long long hi) -> std::optional<long long> {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      const util::StatusOr<long long> parsed = util::parse_int(v, lo, hi);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s: %s\n", arg.c_str(),
                     parsed.status().message().c_str());
        return std::nullopt;
      }
      return *parsed;
    };
    if (arg == "--example") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.example = v;
    } else if (arg == "--input") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.input = v;
    } else if (arg == "--flow") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.flow = v;
    } else if (arg == "--partition") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.partition = v;
    } else if (arg == "--svg") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.svg = v;
    } else if (arg == "--save") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.save = v;
    } else if (arg == "--wiring") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.wiring = v;
    } else if (arg == "--trace") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.trace = v;
    } else if (arg == "--profile") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.profile = v;
    } else if (arg == "--metrics-json") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.metrics_json = v;
    } else if (arg == "--manifest") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.manifest = v;
    } else if (arg == "--threads") {
      const auto v = int_value(0, kMaxThreads);
      if (!v) return std::nullopt;
      args.threads = static_cast<int>(*v);
    } else if (arg == "--engine-mode") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      const util::StatusOr<engine::EngineMode> mode =
          engine::parse_engine_mode(v);
      if (!mode.ok()) {
        std::fprintf(stderr, "%s\n", mode.status().to_string().c_str());
        return std::nullopt;
      }
      args.engine_mode = v;
    } else if (arg == "--deadline-ms") {
      const auto v = int_value(0, std::numeric_limits<long long>::max());
      if (!v) return std::nullopt;
      args.deadline_ms = *v;
    } else if (arg == "--net-effort") {
      const auto v = int_value(0, std::numeric_limits<long long>::max());
      if (!v) return std::nullopt;
      args.net_effort = *v;
    } else if (arg == "--fail-policy") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      if (std::strcmp(v, "abort") == 0) {
        args.fail_policy = flow::FailPolicy::kAbort;
      } else if (std::strcmp(v, "degrade") == 0) {
        args.fail_policy = flow::FailPolicy::kDegrade;
      } else if (std::strcmp(v, "partial") == 0) {
        args.fail_policy = flow::FailPolicy::kPartial;
      } else {
        std::fprintf(stderr, "unknown fail policy '%s'\n", v);
        return std::nullopt;
      }
    } else if (arg == "--faults") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.faults = v;
    } else if (arg == "--verbose") {
      args.verbose = true;
    } else if (arg == "--check") {
      args.check = true;
    } else if (arg == "--help" || arg == "-h") {
      return std::nullopt;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return std::nullopt;
    }
  }
  if (args.example.empty() == args.input.empty()) {
    std::fputs("exactly one of --example / --input is required\n", stderr);
    return std::nullopt;
  }
  return args;
}

/// The CLI's knobs as a service JobSpec, so instance construction and
/// partitioning go through the same code path as the daemon's jobs
/// (service/job.hpp). `faults` keeps the CLI-only "" = inherit-OCR_FAULTS
/// semantics; the flow kind is parsed separately to preserve the usage
/// (exit 2) contract for unknown names.
service::JobSpec spec_from_args(const Args& args) {
  service::JobSpec spec;
  spec.example = args.example;
  spec.input = args.input;
  spec.partition = args.partition;
  spec.threads = args.threads;
  spec.engine_mode = args.engine_mode;
  spec.fail_policy = args.fail_policy;
  spec.deadline_ms = args.deadline_ms;
  spec.net_effort = args.net_effort;
  spec.faults = args.faults;
  return spec;
}

void print_metrics(const flow::RunReport& report) {
  const flow::FlowMetrics& m = report.metrics;
  std::printf("flow:              %s\n", m.flow_name.c_str());
  std::printf("instance:          %s\n", m.example_name.c_str());
  std::printf("layout:            %lld x %lld  (area %s)\n",
              static_cast<long long>(m.die_width),
              static_cast<long long>(m.die_height),
              util::with_commas(m.layout_area).c_str());
  std::printf("wire length:       %s dbu\n",
              util::with_commas(m.wire_length).c_str());
  std::printf("vias:              %d\n", m.vias);
  std::printf("channel tracks:    %d\n", m.total_channel_tracks);
  if (m.levelb_nets > 0) {
    std::printf("level A / B nets:  %d / %d\n", m.levela_nets,
                m.levelb_nets);
    std::printf("level B complete:  %.1f%%\n",
                100.0 * m.levelb_completion);
    std::printf("engine threads:    %d (%s)\n", m.levelb_threads,
                m.levelb_engine_mode.c_str());
    std::printf("engine vertices:   %s\n",
                util::with_commas(m.levelb_vertices).c_str());
    if (m.levelb_engine_mode == "sharded") {
      std::printf("engine batches:    %lld (%lld batch commits, "
                  "%lld boundary re-routes)\n",
                  m.levelb_batches, m.levelb_sharded_commits,
                  m.levelb_boundary_nets);
      std::printf("engine waste:      %s vertices, %.1f ms search "
                  "(boundary escapes)\n",
                  util::with_commas(m.levelb_sharded_wasted_vertices)
                      .c_str(),
                  m.levelb_sharded_wasted_search_us / 1000.0);
    }
  }
  if (m.peak_rss_kb > 0 || m.tig_grid_bytes > 0) {
    std::printf("memory:            %s KB peak RSS, %s grid bytes\n",
                util::with_commas(m.peak_rss_kb).c_str(),
                util::with_commas(m.tig_grid_bytes).c_str());
  }
  if (m.degrade_fault_reroutes > 0 || m.degrade_ripup_recovered > 0 ||
      m.degrade_fault_drops > 0 || m.unrouted_nets > 0 ||
      m.cancelled_nets > 0 || m.budget_nets > 0 ||
      m.pool_task_failures > 0 || m.faults_injected > 0 ||
      report.deadline_fired) {
    std::printf("degradation:       %lld serial re-routes, %d recovered "
                "by rip-up, %lld dropped\n",
                m.degrade_fault_reroutes, m.degrade_ripup_recovered,
                m.degrade_fault_drops);
    std::printf("  unrouted nets:   %d (%d cancelled, %d out of budget)\n",
                m.unrouted_nets, m.cancelled_nets, m.budget_nets);
    if (m.faults_injected > 0) {
      std::printf("  faults injected: %lld\n", m.faults_injected);
    }
    if (m.pool_task_failures > 0) {
      std::printf("  task failures:   %lld\n", m.pool_task_failures);
    }
    if (report.deadline_fired) std::puts("  deadline:        fired");
  }
  if (!m.success) {
    std::printf("status:            INCOMPLETE (%zu problems)\n",
                m.problems.size());
    for (std::size_t i = 0; i < m.problems.size() && i < 5; ++i) {
      std::printf("  - %s\n", m.problems[i].c_str());
    }
  } else {
    std::printf("status:            %s\n",
                flow::run_status_name(report.status));
  }
  if (!report.error.ok()) {
    std::printf("error:             %s\n", report.error.to_string().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    usage();
    return 2;
  }
  if (args->verbose) util::set_log_level(util::LogLevel::kInfo);

  util::Profiler& profiler = util::Profiler::global();
  if (!args->profile.empty() || !args->manifest.empty()) {
    profiler.enable();
  }

  // Arm fault injection before the input parse so io.* sites fire too
  // (flow::run re-arms the same spec for the routing stages).
  {
    util::FaultRegistry& registry = util::FaultRegistry::global();
    const util::Status armed = args->faults == "-"
                                   ? (registry.clear(), util::Status())
                               : args->faults.empty()
                                   ? registry.configure_from_env()
                                   : registry.configure(args->faults);
    if (!armed.ok()) {
      std::fprintf(stderr, "error: %s\n", armed.to_string().c_str());
      return 1;
    }
  }

  const service::JobSpec spec = spec_from_args(*args);
  auto ml = [&] {
    OCR_SPAN("cli.parse");
    std::vector<std::string> warnings;
    auto instance = service::make_instance(spec, &warnings);
    for (const std::string& warning : warnings) {
      std::fprintf(stderr, "warning: %s\n", warning.c_str());
    }
    return instance;
  }();
  if (!ml.ok()) {
    std::fprintf(stderr, "error: %s\n", ml.status().to_string().c_str());
    return 1;
  }

  if (!args->save.empty()) {
    if (!io::save_layout(*ml, args->save)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   args->save.c_str());
      return 1;
    }
    std::printf("saved instance to %s\n", args->save.c_str());
  }

  util::TraceSink trace;
  trace.set_mirror(profiler.enabled() ? &profiler : nullptr);
  flow::FlowArtifacts artifacts;
  flow::RunOptions ropt;
  ropt.flow.levelb_threads = args->threads;
  ropt.flow.levelb_engine_mode = args->engine_mode;
  ropt.fail_policy = args->fail_policy;
  ropt.deadline_ms = args->deadline_ms;
  ropt.net_effort = args->net_effort;
  ropt.faults = args->faults;
  ropt.artifacts = &artifacts;
  if (!args->trace.empty()) ropt.trace = &trace;

  partition::NetPartition part;
  if (args->flow == "overcell") {
    ropt.kind = flow::FlowKind::kOverCell;
    OCR_SPAN("cli.partition");
    const auto zero = ml->assemble(std::vector<geom::Coord>(
        static_cast<std::size_t>(ml->num_channels()), 0));
    auto made = service::make_partition(args->partition, zero);
    if (!made.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   made.status().to_string().c_str());
      return 1;
    }
    part = std::move(made).value();
  } else if (args->flow == "2layer") {
    ropt.kind = flow::FlowKind::kTwoLayer;
  } else if (args->flow == "4layer") {
    ropt.kind = flow::FlowKind::kFourLayer;
  } else if (args->flow == "50pct") {
    ropt.kind = flow::FlowKind::kFiftyPercent;
  } else {
    std::fprintf(stderr, "unknown flow '%s'\n", args->flow.c_str());
    return 2;
  }

  const flow::RunReport report = flow::run(*ml, part, ropt);

  // Reporting, checks and artifact writes are one "cli.report" stage. A
  // failure in here overrides the flow's exit code with 1; the
  // observability outputs below are still written so the manifest records
  // what actually happened.
  const std::optional<int> output_failure = [&]() -> std::optional<int> {
    OCR_SPAN("cli.report");
    print_metrics(report);
    if (args->verbose) {
      std::fputs(report::render_metrics_summary(
                     util::MetricsRegistry::global().snapshot())
                     .c_str(),
                 stdout);
    }

    if (!args->trace.empty()) {
      if (!trace.write_json_file(args->trace)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     args->trace.c_str());
        return 1;
      }
      std::printf("wrote %s (%zu trace events)\n", args->trace.c_str(),
                  trace.size());
    }

    if (args->check && args->flow == "overcell") {
      const auto violations = flow::check_over_cell_result(artifacts);
      if (violations.empty()) {
        std::puts("check:             clean (no violations)");
      } else {
        std::printf("check:             %zu violations\n",
                    violations.size());
        for (std::size_t i = 0; i < violations.size() && i < 10; ++i) {
          std::printf("  - %s\n", violations[i].c_str());
        }
        return 1;
      }
    }

    if (!args->wiring.empty() && args->flow == "overcell") {
      if (!io::save_wiring(artifacts.levelb, args->wiring)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     args->wiring.c_str());
        return 1;
      }
      std::printf("wrote %s (level-B wiring)\n", args->wiring.c_str());
    }

    if (!args->svg.empty()) {
      const std::string svg =
          args->flow == "overcell"
              ? viz::render_levelb_routing(artifacts)
              : viz::render_layout(artifacts.layout);
      if (!viz::write_file(args->svg, svg)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     args->svg.c_str());
        return 1;
      }
      std::printf("wrote %s\n", args->svg.c_str());
    }
    return std::nullopt;
  }();
  const int exit_code = output_failure.value_or(report.exit_code());

  if (!args->metrics_json.empty()) {
    const util::MetricsSnapshot snapshot =
        util::MetricsRegistry::global().snapshot();
    if (!snapshot.write_json_file(args->metrics_json)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   args->metrics_json.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu counters, %zu gauges, %zu histograms)\n",
                args->metrics_json.c_str(), snapshot.counters.size(),
                snapshot.gauges.size(), snapshot.histograms.size());
  }

  if (!args->profile.empty()) {
    if (!profiler.write_chrome_json(args->profile)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   args->profile.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu profile records; open at "
                "https://ui.perfetto.dev)\n",
                args->profile.c_str(), profiler.records().size());
  }

  if (!args->manifest.empty()) {
    util::RunManifest manifest("ocr_route");
    manifest.add_config("flow", args->flow);
    manifest.add_config("partition", args->partition);
    manifest.add_config("threads", args->threads);
    manifest.add_config("engine_mode", args->engine_mode);
    manifest.add_config("fail_policy",
                        flow::fail_policy_name(args->fail_policy));
    manifest.add_config("deadline_ms", args->deadline_ms);
    manifest.add_config("net_effort", args->net_effort);
    if (!args->faults.empty()) manifest.add_config("faults", args->faults);
    manifest.add_provenance(
        "instance", args->input.empty() ? args->example : args->input);
    manifest.add_outcome("status", flow::run_status_name(report.status));
    manifest.add_outcome("exit_code", exit_code);
    manifest.add_outcome("deadline_fired", report.deadline_fired);
    manifest.add_outcome(
        "problems", static_cast<long long>(report.metrics.problems.size()));
    manifest.capture_stages(profiler);
    manifest.capture_metrics(util::MetricsRegistry::global());
    if (!manifest.write_json_file(args->manifest)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   args->manifest.c_str());
      return 1;
    }
    std::printf("wrote %s (run manifest)\n", args->manifest.c_str());
  }

  return exit_code;
}
