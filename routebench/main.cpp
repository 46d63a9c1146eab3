// routebench: end-to-end and per-layer benchmark of the router.
//
//   routebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--revision <text>]
//
// Workloads (see README.md for the make-up of each and why it is here):
//   bigdie-serial  cold serial routes of a truncated sparse-100k die; after
//                  timing, sharded routes of it show the engine layer
//   paper-jobs     a closed loop of JSONL jobs through the service layer
//
// Every run sets up its inputs (timed several times; the median is
// setup_s), runs whole rounds of its operation for --seconds, then checks
// the outputs: the independent plan checker (plan_check.hpp), identity of
// repeated routes, and the workload's property checks. The last line of
// standard output is one JSON object. With --trace 0 it holds the
// end-to-end metrics. With --trace 1 the timed phase is split in two
// halves, untraced then traced, and it holds the per-layer metrics plus
// the tracing overhead between the halves. Any violation makes the exit
// code 1.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench_data/levelb_instance.hpp"
#include "engine/engine.hpp"
#include "engine/partition.hpp"
#include "flow/run.hpp"
#include "io/job_io.hpp"
#include "levelb/net_core.hpp"
#include "plan_check.hpp"
#include "service/executor.hpp"
#include "service/job.hpp"
#include "tig/track_grid.hpp"
#include "util/metrics.hpp"
#include "util/profile.hpp"
#include "util/trace.hpp"

namespace {

using namespace ocr;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---- statistics ----------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]) of \p v; 0 when empty.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// The job-latency tail each workload reports: a fixed percentile per
/// workload, chosen so a run of the current code has at least ten samples
/// beyond it (a faster program only adds samples). A run with fewer says
/// so in its log.
struct Tail {
  double percentile = 75.0;
  std::size_t min_samples() const {
    return static_cast<std::size_t>(10.0 / (1.0 - percentile / 100.0) + 0.5);
  }
};

// ---- output --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports.
struct Outcome {
  std::vector<std::string> violations;
  long long jobs_attempted = 0;
  long long jobs_failed = 0;
  long long nets_attempted = 0;
  long long nets_failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void violation(std::string what) { violations.push_back(std::move(what)); }
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Integer field \p key of a trace event (0 when absent).
long long field(const util::TraceEvent& ev, const char* key) {
  for (const auto& [name, value] : ev.fields) {
    if (name == key) return std::atoll(value.to_json().c_str());
  }
  return 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string revision = "unknown";
};

/// The timed phase: whole rounds until \p seconds have passed.
struct Timed {
  long long rounds = 0;
  double wall_s = 0.0;
};

Timed run_rounds(double seconds, const std::function<void()>& round) {
  Timed t;
  const Clock::time_point start = Clock::now();
  do {
    round();
    ++t.rounds;
  } while (ms_since(start) < seconds * 1000.0);
  t.wall_s = ms_since(start) / 1000.0;
  return t;
}

/// Times \p setup \p times times; returns the median in seconds.
double median_setup_s(int times, const std::function<void()>& setup) {
  std::vector<double> s;
  for (int k = 0; k < times; ++k) {
    const Clock::time_point start = Clock::now();
    setup();
    s.push_back(ms_since(start) / 1000.0);
  }
  return median(s);
}

constexpr int kSetupRepeats = 3;

// ---- level-B workloads ---------------------------------------------------

/// Per-route level-B figures read from the result and the per-net trace.
struct LevelBTrace {
  std::vector<double> net_us_p50, first_decile_us, last_decile_us;
  std::vector<double> candidates, window_growths;

  void add(const std::vector<util::TraceEvent>& events) {
    std::vector<std::pair<long long, double>> by_order;
    double cand = 0, growths = 0;
    for (const util::TraceEvent& ev : events) {
      if (ev.kind != "net") continue;
      by_order.emplace_back(field(ev, "order"),
                            static_cast<double>(field(ev, "search_us")));
      cand += static_cast<double>(field(ev, "candidates"));
      growths += static_cast<double>(field(ev, "window_growths"));
    }
    if (by_order.empty()) return;
    std::sort(by_order.begin(), by_order.end());
    std::vector<double> all, first, last;
    const std::size_t n = by_order.size();
    for (std::size_t k = 0; k < n; ++k) {
      all.push_back(by_order[k].second);
      if (k < n / 10) first.push_back(by_order[k].second);
      if (k >= n - n / 10) last.push_back(by_order[k].second);
    }
    net_us_p50.push_back(median(all));
    first_decile_us.push_back(mean(first));
    last_decile_us.push_back(mean(last));
    candidates.push_back(cand);
    window_growths.push_back(growths);
  }
};

/// One routing job of a level-B workload: copy the pristine grid, route.
struct RouteSample {
  double copy_ms = 0.0;
  double route_ms = 0.0;
  levelb::LevelBResult result;
  engine::EngineStats stats;
  std::size_t grid_bytes = 0;
};

RouteSample route_once(const bench_data::LevelBInstance& inst,
                       const engine::EngineOptions& options) {
  RouteSample s;
  const Clock::time_point start = Clock::now();
  tig::TrackGrid grid = inst.grid;
  s.copy_ms = ms_since(start);
  const Clock::time_point route_start = Clock::now();
  engine::RoutingEngine engine(grid, options);
  s.result = engine.route(inst.nets);
  s.route_ms = ms_since(route_start);
  s.stats = engine.stats();
  s.grid_bytes = grid.grid_bytes();
  return s;
}

/// Drops the nets with a terminal the generator clamped onto the die
/// edge. At sparse-5000 density on a 10000-dbu die, about one seed in nine
/// leaves one such net unrouted, even after rip-up; that fault depends on
/// the seed, so those nets are left out of the workload.
void drop_edge_nets(bench_data::LevelBInstance& inst, geom::Coord size) {
  std::erase_if(inst.nets, [&](const levelb::BNet& net) {
    return std::any_of(net.terminals.begin(), net.terminals.end(),
                       [&](const geom::Point& p) {
                         return p.x == 0 || p.y == 0 || p.x == size - 1 ||
                                p.y == size - 1;
                       });
  });
}

/// What a level-B workload prepares before timing: the instance and the
/// serial reference route every timed route must reproduce.
struct LevelBSetup {
  bench_data::LevelBInstance inst{
      "", tig::TrackGrid::uniform(geom::Rect(0, 0, 1, 1), 1, 1), {}};
  levelb::LevelBResult reference;
  double setup_s = 0;
  std::vector<double> generate_ms, serial_route_ms;
};

LevelBSetup setup_levelb(const bench_data::LevelBSpec& spec, Outcome& out) {
  LevelBSetup s;
  s.setup_s = median_setup_s(kSetupRepeats, [&] {
    const Clock::time_point start = Clock::now();
    s.inst = bench_data::generate_levelb_instance(spec);
    drop_edge_nets(s.inst, spec.size);
    s.generate_ms.push_back(ms_since(start));
    RouteSample serial = route_once(s.inst, engine::EngineOptions{});
    s.serial_route_ms.push_back(serial.route_ms);
    if (s.serial_route_ms.size() == 1) {
      s.reference = std::move(serial.result);
    } else if (!(serial.result == s.reference)) {
      out.violation("two serial routes of the same input differ");
    }
  });
  return s;
}

/// Timed loop over cold routes of one instance. Checks every route
/// against the serial reference and returns the figures of the phase.
struct RoutePhase {
  Timed timed;
  std::vector<double> job_ms, copy_ms, route_ms;
  RouteSample first;
  LevelBTrace trace;
};

RoutePhase route_phase(const LevelBSetup& setup,
                       engine::EngineOptions options, double seconds,
                       bool traced, Outcome& out) {
  const bench_data::LevelBInstance& inst = setup.inst;
  RoutePhase phase;
  util::TraceSink sink;
  if (traced) options.levelb.trace = &sink;
  bool have_first = false;
  phase.timed = run_rounds(seconds, [&] {
    sink.clear();
    RouteSample s = route_once(inst, options);
    phase.job_ms.push_back(s.copy_ms + s.route_ms);
    phase.copy_ms.push_back(s.copy_ms);
    phase.route_ms.push_back(s.route_ms);
    out.jobs_attempted += 1;
    out.nets_attempted += static_cast<long long>(inst.nets.size());
    out.nets_failed += s.result.failed_nets;
    if (s.result.failed_nets > 0) out.jobs_failed += 1;
    if (traced) phase.trace.add(sink.events());
    if (!(s.result == setup.reference)) {
      out.violation("a timed route differs from the serial reference route");
    }
    if (!have_first) {
      phase.first = std::move(s);
      have_first = true;
    }
  });
  return phase;
}

void check_plan_into(const tig::TrackGrid& pristine,
                     const std::vector<levelb::BNet>& nets,
                     const levelb::LevelBResult& result, const char* what,
                     Outcome& out) {
  for (const std::string& v : routebench::check_plan(pristine, nets, result)) {
    out.violation(std::string(what) + ": " + v);
  }
}

/// Metrics of the engine layer that every workload prints (zero where
/// the workload does not run the sharded engine).
struct EngineLayer {
  double route_ms = 0, serial_route_ms = 0, speedup = 0, plan_ms = 0;
  double batches = 0, max_batch = 0, mean_batch = 0, boundary = 0;
  double commit_ratio = 0, wasted_vertices = 0, wasted_search_ms = 0;

  void print(Outcome& out) const {
    out.layer("engine.route_ms", route_ms, "ms");
    out.layer("engine.serial_route_ms", serial_route_ms, "ms");
    out.layer("engine.speedup_vs_serial", speedup, "x");
    out.layer("engine.plan_ms", plan_ms, "ms");
    out.layer("engine.batches", batches, "count");
    out.layer("engine.max_batch_size", max_batch, "count");
    out.layer("engine.mean_batch", mean_batch, "count");
    out.layer("engine.boundary_nets", boundary, "count");
    out.layer("engine.commit_ratio", commit_ratio, "ratio");
    out.layer("engine.wasted_vertices", wasted_vertices, "count");
    out.layer("engine.wasted_search_ms", wasted_search_ms, "ms");
  }
};

/// Level-B and tig layer metrics of a traced route phase (zero on the
/// job workload, whose level-B runs sit inside the flows).
void print_levelb_layers(const RoutePhase* phase, Outcome& out) {
  const bool on = phase != nullptr;
  const double route_ms = on ? median(phase->route_ms) : 0.0;
  const double vertices =
      on ? static_cast<double>(phase->first.result.vertices_examined) : 0.0;
  auto traced = [&](std::vector<double> LevelBTrace::*member) {
    return on ? median(phase->trace.*member) : 0.0;
  };
  out.layer("tig.grid_copy_ms", on ? median(phase->copy_ms) : 0.0, "ms");
  out.layer("tig.grid_bytes",
            on ? static_cast<double>(phase->first.grid_bytes) : 0.0, "bytes");
  out.layer("levelb.route_ms", route_ms, "ms");
  out.layer("levelb.vertices", vertices, "count");
  out.layer("levelb.us_per_vertex",
            vertices > 0 ? route_ms * 1000.0 / vertices : 0.0, "us");
  out.layer("levelb.candidates", traced(&LevelBTrace::candidates), "count");
  out.layer("levelb.window_growths", traced(&LevelBTrace::window_growths),
            "count");
  out.layer("levelb.corners",
            on ? static_cast<double>(phase->first.result.total_corners) : 0.0,
            "count");
  out.layer("levelb.net_us_p50", traced(&LevelBTrace::net_us_p50), "us");
  out.layer("levelb.net_us_first_decile",
            traced(&LevelBTrace::first_decile_us), "us");
  out.layer("levelb.net_us_last_decile", traced(&LevelBTrace::last_decile_us),
            "us");
}

/// Appends the end-to-end job metrics of a route phase.
void print_route_e2e(const RoutePhase& phase, const Tail& tail,
                     double setup_s, double rss_mb, std::size_t nets,
                     Outcome& out, geom::Coord die) {
  const double jobs = static_cast<double>(phase.job_ms.size());
  out.e2e("setup_s", setup_s, "s");
  out.e2e("jobs_per_s", jobs / phase.timed.wall_s, "1/s");
  out.e2e("nets_per_s", jobs * static_cast<double>(nets) / phase.timed.wall_s,
          "1/s");
  out.e2e("job_ms_p50", median(phase.job_ms), "ms");
  out.e2e("job_ms_tail", percentile(phase.job_ms, tail.percentile), "ms");
  out.e2e("peak_rss_mb", rss_mb, "MB");
  out.e2e("wirelength_dbu",
          static_cast<double>(phase.first.result.total_wire_length), "dbu");
  // Level-B vias are its corners (metal3<->metal4 changes).
  out.e2e("vias", static_cast<double>(phase.first.result.total_corners),
          "count");
  out.e2e("layout_area_dbu2",
          static_cast<double>(die) * static_cast<double>(die), "dbu2");
}

// bigdie-serial: the sparse-100k die truncated to kBigDieNets nets. At
// this count the dup cost term owns about two thirds of a route, and a
// 30-second run still holds the 40 routes its p75 tail needs.
constexpr int kBigDieNets = 5000;
// Sharded routes of the bigdie instance use two engine threads, not
// four: on a 4-vCPU host every batch barrier waits for the slowest vCPU,
// and at four threads routes were both slower and noisier.
constexpr int kShardThreads = 2;

bench_data::LevelBSpec bigdie_spec(std::uint64_t seed) {
  bench_data::LevelBSpec spec = bench_data::sparse100k_spec();
  spec.name = "bigdie";
  spec.seed = seed;
  spec.num_nets = kBigDieNets;
  return spec;
}

/// Runs the timed phase of a level-B workload: all of it untraced, or
/// (traced runs) half untraced then half traced.
struct LevelBRun {
  RoutePhase plain;
  RoutePhase traced;
  double overhead_pct = 0.0;
};

LevelBRun run_levelb(const LevelBSetup& setup,
                     const engine::EngineOptions& options, const Args& args,
                     Outcome& out) {
  LevelBRun run;
  if (!args.trace) {
    run.plain = route_phase(setup, options, args.seconds, false, out);
    return run;
  }
  run.plain = route_phase(setup, options, args.seconds / 2, false, out);
  run.traced = route_phase(setup, options, args.seconds / 2, true, out);
  const double plain = median(run.plain.job_ms);
  run.overhead_pct = 100.0 * (median(run.traced.job_ms) - plain) / plain;
  return run;
}

struct JobPhase;
struct JobLine;
void print_job_layers(const JobPhase* phase, const std::vector<JobLine>& round,
                      Outcome& out);

void report_samples(const char* what, std::size_t n, const Tail* tail) {
  std::printf("samples: %s n=%zu", what, n);
  if (tail != nullptr) {
    std::printf(" (p50; p%g needs >= %zu%s)", tail->percentile,
                tail->min_samples(),
                n >= tail->min_samples() ? "" : " -- TOO FEW");
  }
  std::printf("\n");
}

/// Sharded routes of a level-B instance, and the engine layer they show.
/// Every sharded route must equal the serial reference: the guarantee
/// engine.hpp documents.
EngineLayer sharded_engine_layer(const LevelBSetup& setup, int routes,
                                 Outcome& out) {
  const bench_data::LevelBInstance& inst = setup.inst;
  engine::EngineOptions options;
  options.threads = kShardThreads;
  options.mode = engine::EngineMode::kSharded;
  std::vector<double> route_ms;
  engine::EngineStats stats;
  for (int k = 0; k < routes; ++k) {
    RouteSample s = route_once(inst, options);
    if (!(s.result == setup.reference)) {
      out.violation("a sharded route differs from the serial route");
    }
    route_ms.push_back(s.route_ms);
    stats = s.stats;
  }

  // engine::build_shard_plan timed on its own, over the engine's ordering
  // and snapped terminals.
  const std::vector<std::size_t> order =
      levelb::order_nets(inst.nets, options.levelb.ordering);
  tig::TrackGrid scratch = inst.grid;
  const std::vector<std::vector<geom::Point>> snapped =
      levelb::snap_and_reserve_terminals(scratch, inst.nets);
  std::vector<const levelb::BNet*> nets_by_position;
  std::vector<const std::vector<geom::Point>*> terminals_by_position;
  for (std::size_t k : order) {
    nets_by_position.push_back(&inst.nets[k]);
    terminals_by_position.push_back(&snapped[k]);
  }
  engine::ShardPlanOptions plan_options;
  plan_options.pitch = std::max(inst.grid.h_y(1) - inst.grid.h_y(0),
                                inst.grid.v_x(1) - inst.grid.v_x(0));
  plan_options.halo_pitches = options.shard_halo_pitches;
  std::vector<double> plan_ms;
  engine::ShardPlan plan;
  for (int k = 0; k < routes; ++k) {
    const Clock::time_point start = Clock::now();
    plan = engine::build_shard_plan(nets_by_position, terminals_by_position,
                                    plan_options);
    plan_ms.push_back(ms_since(start));
  }
  if (static_cast<long long>(plan.batches.size()) != stats.batches) {
    out.violation("the timed shard plan differs from the engine's");
  }

  const double nets = static_cast<double>(inst.nets.size());
  EngineLayer e;
  e.route_ms = median(route_ms);
  e.serial_route_ms = median(setup.serial_route_ms);
  e.speedup = e.serial_route_ms / e.route_ms;
  e.plan_ms = median(plan_ms);
  e.batches = static_cast<double>(stats.batches);
  e.max_batch = static_cast<double>(stats.max_batch_size);
  e.mean_batch = plan.mean_batch();
  e.boundary = static_cast<double>(stats.boundary_nets);
  e.commit_ratio = static_cast<double>(stats.sharded_commits) / nets;
  e.wasted_vertices = static_cast<double>(stats.sharded_wasted_vertices);
  e.wasted_search_ms =
      static_cast<double>(stats.sharded_wasted_search_us) / 1000.0;
  report_samples("sharded routes", route_ms.size(), nullptr);
  std::printf("engine.speedup_vs_serial base: serial 1-thread route of the "
              "same instance, %.1f ms median of %zu; sharded %d threads "
              "%.1f ms median of %zu\n",
              e.serial_route_ms, setup.serial_route_ms.size(), kShardThreads,
              e.route_ms, route_ms.size());
  return e;
}

void workload_bigdie(const Args& args, Outcome& out) {
  const Tail tail{75.0};
  const LevelBSetup setup = setup_levelb(bigdie_spec(args.seed), out);
  const bench_data::LevelBInstance& inst = setup.inst;
  std::printf("instance: %s seed=%llu die=%lld nets=%zu tracks=%dx%d\n",
              inst.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<long long>(bigdie_spec(args.seed).size),
              inst.nets.size(), inst.grid.num_h(), inst.grid.num_v());

  engine::EngineOptions options;  // 1 thread: the serial router
  const LevelBRun run = run_levelb(setup, options, args, out);
  // The workload's own peak: the checks below allocate more.
  const double rss_mb = peak_rss_mb();
  check_plan_into(inst.grid, inst.nets, setup.reference, "plan", out);
  report_samples("routes", run.plain.job_ms.size(), &tail);
  // After the timed phase: sharded routes of the same instance, checked
  // against the serial reference (three on traced runs, for timings).
  const EngineLayer engine_layer =
      sharded_engine_layer(setup, args.trace ? 3 : 1, out);

  if (!args.trace) {
    print_route_e2e(run.plain, tail, setup.setup_s, rss_mb, inst.nets.size(),
                    out, bigdie_spec(args.seed).size);
    return;
  }
  report_samples("traced routes", run.traced.job_ms.size(), nullptr);
  out.layer("bench_data.generate_ms", median(setup.generate_ms), "ms");
  out.layer("service.materialize_ms", 0.0, "ms");
  print_levelb_layers(&run.traced, out);
  engine_layer.print(out);
  print_job_layers(nullptr, {}, out);
  out.layer("trace.overhead_pct", run.overhead_pct, "%");
}

// ---- paper-jobs ------------------------------------------------------------

constexpr int kWorkers = 2;
constexpr int kOutstanding = 4;
constexpr int kRandomExamples = 3;

/// One line of the job stream and what the client knows about it.
struct JobLine {
  std::string line;
  std::string example;
  std::string flow;
};

std::vector<JobLine> paper_round(std::uint64_t seed) {
  std::vector<JobLine> jobs;
  int id = 0;
  auto add = [&](const std::string& example, const std::string& flow) {
    JobLine j;
    j.example = example;
    j.flow = flow;
    j.line = "{\"id\":\"j" + std::to_string(id++) + "\",\"example\":\"" +
             example + "\",\"flow\":\"" + flow + "\"}";
    jobs.push_back(std::move(j));
  };
  for (const char* example : {"ami33", "xerox", "ex3"}) {
    for (const char* flow : {"overcell", "2layer", "4layer"}) add(example, flow);
  }
  // Random examples: the first kRandomExamples candidates
  // random:<100*seed + k>, k = 0, 1, ..., whose over-cell run is clean. A
  // rare candidate leaves a net unrouted (random:14302 does); that fault
  // depends on the seed, so it is screened out here rather than counted.
  const std::size_t fixed = jobs.size();
  for (std::uint64_t k = 0; k < 100 && jobs.size() < fixed + kRandomExamples;
       ++k) {
    service::JobSpec spec;
    spec.example = "random:" + std::to_string(seed * 100 + k);
    util::StatusOr<service::RoutingJob> job = service::materialize(spec);
    if (!job.ok()) continue;
    const flow::RunReport report =
        flow::run(job.value().layout, job.value().partition,
                  service::job_run_options(job.value()));
    if (report.status == flow::RunStatus::kClean) {
      add(spec.example, "overcell");
    } else {
      std::printf("screened out: %s (%s)\n", spec.example.c_str(),
                  flow::run_status_name(report.status));
    }
  }
  return jobs;
}

util::StatusOr<service::RoutingJob> intake(const std::string& line,
                                           double* parse_us,
                                           double* materialize_ms) {
  const Clock::time_point start = Clock::now();
  util::StatusOr<io::JobRequest> request = io::parse_job_request(line);
  *parse_us = ms_since(start) * 1000.0;
  if (!request.ok()) return request.status();
  util::StatusOr<service::JobSpec> spec =
      service::spec_from_request(request.value());
  if (!spec.ok()) return spec.status();
  const Clock::time_point mat = Clock::now();
  util::StatusOr<service::RoutingJob> job = service::materialize(spec.value());
  *materialize_ms = ms_since(mat);
  return job;
}

/// What one finished job left behind.
struct JobRecord {
  std::size_t slot = 0;  ///< position in the round
  double job_ms = 0;     ///< intake start -> completion callback
  long long queue_ms = 0;
  long long run_ms = 0;
  int exit_class = 0;
  long long nets = 0;
  long long wire_length = 0;
  long long vias = 0;
  long long area = 0;
  int unrouted = 0;
};

JobRecord record_of(std::size_t slot, long long nets,
                    const service::JobResult& r) {
  JobRecord rec;
  rec.slot = slot;
  rec.queue_ms = r.queue_ms;
  rec.run_ms = r.run_ms;
  rec.exit_class = r.exit_class();
  rec.nets = nets;
  rec.wire_length = r.report.metrics.wire_length;
  rec.vias = r.report.metrics.vias;
  rec.area = r.report.metrics.layout_area;
  rec.unrouted = r.report.metrics.unrouted_nets;
  return rec;
}

bool same_outputs(const JobRecord& a, const JobRecord& b) {
  return a.exit_class == b.exit_class && a.wire_length == b.wire_length &&
         a.vias == b.vias && a.area == b.area && a.unrouted == b.unrouted;
}

/// Aggregates spans of the global profiler by name (total ms).
struct SpanTotals {
  std::map<std::string, double> ms_by_name;
  void drain() {
    util::Profiler& profiler = util::Profiler::global();
    for (const util::Profiler::Record& r : profiler.records()) {
      if (r.dur_us >= 0) ms_by_name[r.name] += r.dur_us / 1000.0;
    }
    profiler.clear();
  }
  /// Mean ms of \p name per job of the phase.
  double per_job_ms(const std::string& name, std::size_t jobs) const {
    const auto it = ms_by_name.find(name);
    return it == ms_by_name.end() || jobs == 0
               ? 0.0
               : it->second / static_cast<double>(jobs);
  }
};

struct JobPhase {
  Timed timed;
  std::vector<JobRecord> records;
  std::vector<double> parse_us, materialize_ms, submit_us;
  long long channels_routed = 0;
  SpanTotals spans;
};

/// The closed loop: at most kOutstanding jobs in flight against a
/// kWorkers-worker executor, whole rounds of \p round until \p seconds.
JobPhase job_phase(const std::vector<JobLine>& round, double seconds,
                   bool traced, Outcome& out) {
  JobPhase phase;
  std::mutex mu;
  std::condition_variable cv;
  int in_flight = 0;  // guarded by mu
  std::vector<JobRecord> done;  // guarded by mu

  service::JobExecutor::Options options;
  options.workers = kWorkers;
  util::Profiler& profiler = util::Profiler::global();
  const long long channels_before =
      util::MetricsRegistry::global().snapshot().counter_value(
          "channel.routed", 0);
  {
    service::JobExecutor executor(options);
    if (traced) {
      profiler.clear();
      profiler.enable();
    }
    const Clock::time_point start = Clock::now();
    phase.timed = run_rounds(seconds, [&] {
      for (std::size_t slot = 0; slot < round.size(); ++slot) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return in_flight < kOutstanding; });
          ++in_flight;
        }
        const Clock::time_point intake_start = Clock::now();
        double parse_us = 0, materialize_ms = 0;
        util::StatusOr<service::RoutingJob> job =
            intake(round[slot].line, &parse_us, &materialize_ms);
        phase.parse_us.push_back(parse_us);
        phase.materialize_ms.push_back(materialize_ms);
        if (!job.ok()) {
          out.violation("job " + round[slot].line + ": " +
                        job.status().to_string());
          std::lock_guard<std::mutex> lock(mu);
          --in_flight;
          done.push_back(JobRecord{slot, 0, 0, 0, 1});
          continue;
        }
        const long long nets =
            static_cast<long long>(job.value().layout.nets().size());
        const Clock::time_point submit = Clock::now();
        executor.submit(std::move(job).value(), [&, slot, nets, intake_start](
                                                    service::JobResult r) {
          JobRecord rec = record_of(slot, nets, r);
          rec.job_ms = ms_since(intake_start);
          std::lock_guard<std::mutex> lock(mu);
          done.push_back(rec);
          --in_flight;
          cv.notify_all();
        });
        phase.submit_us.push_back(ms_since(submit) * 1000.0);
        if (traced && phase.submit_us.size() % 64 == 0) phase.spans.drain();
      }
    });
    // The phase ends when its last job completes.
    executor.drain();
    phase.timed.wall_s = ms_since(start) / 1000.0;
  }
  if (traced) {
    phase.spans.drain();
    profiler.disable();
  }
  phase.channels_routed =
      util::MetricsRegistry::global().snapshot().counter_value(
          "channel.routed", 0) -
      channels_before;
  phase.records = std::move(done);
  return phase;
}

/// Flow, channel, service and io layer metrics of a traced job phase
/// (zero on the level-B workloads, which do not run those layers).
void print_job_layers(const JobPhase* phase, const std::vector<JobLine>& round,
                      Outcome& out) {
  auto run_ms_p50 = [&](const char* flow) {
    std::vector<double> v;
    for (const JobRecord& r : phase->records) {
      if (round[r.slot].flow == flow) v.push_back(static_cast<double>(r.run_ms));
    }
    return median(v);
  };
  auto records_p50 = [&](long long JobRecord::*member) {
    std::vector<double> v;
    for (const JobRecord& r : phase->records) {
      v.push_back(static_cast<double>(r.*member));
    }
    return median(v);
  };
  const std::size_t jobs = phase == nullptr ? 0 : phase->records.size();
  auto span = [&](const char* name) {
    return phase == nullptr ? 0.0 : phase->spans.per_job_ms(name, jobs);
  };
  const bool on = phase != nullptr;
  out.layer("flow.overcell_ms_p50", on ? run_ms_p50("overcell") : 0.0, "ms");
  out.layer("flow.twolayer_ms_p50", on ? run_ms_p50("2layer") : 0.0, "ms");
  out.layer("flow.fourlayer_ms_p50", on ? run_ms_p50("4layer") : 0.0, "ms");
  out.layer("flow.levelA_ms", span("flow.levelA"), "ms");
  out.layer("flow.assemble_ms", span("flow.assemble"), "ms");
  out.layer("flow.tig_build_ms", span("flow.tig_build"), "ms");
  out.layer("flow.levelB_ms", span("flow.levelB"), "ms");
  out.layer("flow.optimize_ms", span("flow.optimize"), "ms");
  out.layer("flow.mlchannel_ms", span("flow.mlchannel"), "ms");
  out.layer("channel.routed",
            on ? static_cast<double>(phase->channels_routed) /
                     static_cast<double>(phase->timed.rounds)
               : 0.0,
            "count");
  out.layer("service.queue_ms_p50", on ? records_p50(&JobRecord::queue_ms) : 0.0,
            "ms");
  out.layer("service.run_ms_p50", on ? records_p50(&JobRecord::run_ms) : 0.0,
            "ms");
  out.layer("service.submit_us_p50", on ? median(phase->submit_us) : 0.0, "us");
  out.layer("io.parse_us_p50", on ? median(phase->parse_us) : 0.0, "us");
}

/// The level-B grid the over-cell flow routes on, rebuilt from the
/// assembled layout: uniform metal3/metal4 tracks minus the obstacles.
tig::TrackGrid pristine_levelb_grid(const netlist::Layout& layout) {
  const geom::DesignRules& rules = layout.rules();
  tig::TrackGrid grid = tig::TrackGrid::uniform(
      layout.die(), rules.rule(geom::Layer::kMetal3).pitch(),
      rules.rule(geom::Layer::kMetal4).pitch());
  for (const netlist::Obstacle& o : layout.obstacles()) {
    if (o.blocks_metal3) grid.block_region_h(o.region);
    if (o.blocks_metal4) grid.block_region_v(o.region);
  }
  return grid;
}

void workload_paper(const Args& args, Outcome& out) {
  const Tail tail{99.0};
  const std::vector<JobLine> round = paper_round(args.seed);

  // Set-up: decode and materialize every job of a round and run it once
  // inline through the executor's execution path. Those are the reference
  // results every timed job must reproduce.
  std::vector<double> materialize_round_ms;
  std::vector<JobRecord> ref(round.size());
  const double setup_s = median_setup_s(kSetupRepeats, [&] {
    service::JobExecutor::Options options;
    options.workers = 1;
    service::JobExecutor executor(options);
    const bool first = materialize_round_ms.empty();
    double sum = 0;
    for (std::size_t slot = 0; slot < round.size(); ++slot) {
      double parse_us = 0, materialize_ms = 0;
      util::StatusOr<service::RoutingJob> job =
          intake(round[slot].line, &parse_us, &materialize_ms);
      sum += materialize_ms;
      if (!job.ok()) {
        out.violation("job " + round[slot].line + ": " +
                      job.status().to_string());
        continue;
      }
      const long long nets =
          static_cast<long long>(job.value().layout.nets().size());
      const JobRecord rec =
          record_of(slot, nets, executor.run_inline(std::move(job).value()));
      if (first) {
        ref[slot] = rec;
      } else if (!same_outputs(rec, ref[slot])) {
        out.violation("job " + round[slot].line + " differs between set-ups");
      }
    }
    materialize_round_ms.push_back(sum);
  });
  if (!out.violations.empty()) return;
  std::printf("jobs: %zu per round (%s", round.size(), round[0].line.c_str());
  for (std::size_t k = 1; k < round.size(); ++k) {
    std::printf(", %s/%s", round[k].example.c_str(), round[k].flow.c_str());
  }
  std::printf("); workers=%d outstanding=%d\n", kWorkers, kOutstanding);

  const JobPhase plain =
      job_phase(round, args.trace ? args.seconds / 2 : args.seconds, false, out);
  JobPhase traced;
  if (args.trace) traced = job_phase(round, args.seconds / 2, true, out);
  const double rss_mb = peak_rss_mb();  // before the checks allocate more

  // Accounting, and identity of every timed job with its reference.
  for (const JobPhase* phase : {&plain, static_cast<const JobPhase*>(&traced)}) {
    for (const JobRecord& r : phase->records) {
      out.jobs_attempted += 1;
      out.nets_attempted += r.nets;
      out.nets_failed += r.unrouted;
      if (r.exit_class != 0 || r.unrouted != 0) out.jobs_failed += 1;
      if (!same_outputs(r, ref[r.slot])) {
        out.violation("job " + round[r.slot].line +
                      " differs from its reference run");
      }
    }
  }

  // The directions of the paper's Tables 2-3.
  auto find = [&](const std::string& example,
                  const char* flow) -> const JobRecord* {
    for (std::size_t s = 0; s < round.size(); ++s) {
      if (round[s].example == example && round[s].flow == flow) return &ref[s];
    }
    return nullptr;
  };
  for (const char* example : {"ami33", "xerox", "ex3"}) {
    const JobRecord* oc = find(example, "overcell");
    const JobRecord* two = find(example, "2layer");
    const JobRecord* four = find(example, "4layer");
    const std::string e = example;
    if (!(oc->area < four->area && four->area < two->area)) {
      out.violation(e + ": area is not overcell < 4-layer < 2-layer");
    }
    if (!(oc->wire_length < two->wire_length)) {
      out.violation(e + ": over-cell wire length is not below 2-layer");
    }
    if (!(oc->vias < two->vias)) {
      out.violation(e + ": over-cell vias are not below 2-layer");
    }
  }

  // The independent plan checker on every over-cell job's level-B plan,
  // re-run with artifacts after the timed phase.
  for (std::size_t s = 0; s < round.size(); ++s) {
    if (round[s].flow != "overcell") continue;
    double parse_us = 0, materialize_ms = 0;
    util::StatusOr<service::RoutingJob> job =
        intake(round[s].line, &parse_us, &materialize_ms);
    flow::FlowArtifacts artifacts;
    flow::RunOptions options = service::job_run_options(job.value());
    options.artifacts = &artifacts;
    const flow::RunReport report =
        flow::run(job.value().layout, job.value().partition, options);
    if (report.metrics.wire_length != ref[s].wire_length) {
      out.violation("job " + round[s].line + " differs when re-run");
    }
    std::vector<levelb::BNet> bnets;
    for (netlist::NetId id : job.value().partition.set_b) {
      bnets.push_back(levelb::BNet{static_cast<int>(id.index()),
                                   artifacts.layout.net_pin_positions(id),
                                   false});
    }
    check_plan_into(pristine_levelb_grid(artifacts.layout), bnets,
                    artifacts.levelb, round[s].example.c_str(), out);
  }

  report_samples("jobs", plain.records.size(), &tail);
  if (!args.trace) {
    std::vector<double> job_ms;
    double nets = 0;
    for (const JobRecord& r : plain.records) {
      job_ms.push_back(r.job_ms);
      nets += static_cast<double>(r.nets);
    }
    double wl = 0, vias = 0, area = 0;
    for (const JobRecord& r : ref) {
      wl += static_cast<double>(r.wire_length);
      vias += static_cast<double>(r.vias);
      area += static_cast<double>(r.area);
    }
    out.e2e("setup_s", setup_s, "s");
    out.e2e("jobs_per_s", static_cast<double>(job_ms.size()) / plain.timed.wall_s,
            "1/s");
    out.e2e("nets_per_s", nets / plain.timed.wall_s, "1/s");
    out.e2e("job_ms_p50", median(job_ms), "ms");
    out.e2e("job_ms_tail", percentile(job_ms, tail.percentile), "ms");
    out.e2e("peak_rss_mb", rss_mb, "MB");
    out.e2e("wirelength_dbu", wl, "dbu");
    out.e2e("vias", vias, "count");
    out.e2e("layout_area_dbu2", area, "dbu2");
    return;
  }
  report_samples("traced jobs", traced.records.size(), nullptr);

  // bench_data generation of one round's instances, timed on its own.
  std::vector<double> generate_ms;
  for (int k = 0; k < 3; ++k) {
    double sum = 0;
    for (const JobLine& j : round) {
      double parse_us = 0, materialize_ms = 0;
      util::StatusOr<service::RoutingJob> job =
          intake(j.line, &parse_us, &materialize_ms);
      const Clock::time_point start = Clock::now();
      (void)service::make_instance(job.value().spec);
      sum += ms_since(start);
    }
    generate_ms.push_back(sum);
  }
  std::vector<double> plain_ms, traced_ms;
  for (const JobRecord& r : plain.records) plain_ms.push_back(r.job_ms);
  for (const JobRecord& r : traced.records) traced_ms.push_back(r.job_ms);

  out.layer("bench_data.generate_ms", median(generate_ms), "ms");
  out.layer("service.materialize_ms", median(materialize_round_ms), "ms");
  print_levelb_layers(nullptr, out);
  EngineLayer{}.print(out);
  print_job_layers(&traced, round, out);
  out.layer("trace.overhead_pct",
            100.0 * (median(traced_ms) - median(plain_ms)) / median(plain_ms),
            "%");
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--revision") {
      args->revision = value;
    } else {
      return false;
    }
  }
  return (argc - 1) % 2 == 0 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: routebench --workload bigdie-serial|paper-jobs --seed N --seconds S --trace 0|1 "
                 "[--revision TEXT]\n");
    return 2;
  }
  std::printf("host: nproc=%ld compiler=%s build=%s revision=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), ROUTEBENCH_COMPILER,
              ROUTEBENCH_BUILD_TYPE, args.revision.c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  Outcome out;
  if (args.workload == "bigdie-serial") {
    workload_bigdie(args, out);
  } else if (args.workload == "paper-jobs") {
    workload_paper(args, out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::printf("jobs: attempted=%lld failed=%lld; nets: attempted=%lld "
              "failed=%lld\n",
              out.jobs_attempted, out.jobs_failed, out.nets_attempted,
              out.nets_failed);
  for (const std::string& v : out.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  const bool correct = out.violations.empty() && out.jobs_attempted > 0;
  const std::vector<Metric>& metrics =
      args.trace ? out.per_layer : out.end_to_end;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.jobs_attempted) +
                     ", \"failed\": " + std::to_string(out.jobs_failed) +
                     ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    const Metric& m = metrics[k];
    std::printf("metric: %-32s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    json += (k == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
