/// \file bench_scaling.cpp
/// \brief Scaling studies: the paper's §3.4 complexity claims (storage
/// O(h*v), time O(n*h*v)) plus the engine's thread-scaling behaviour —
/// serial router vs the sharded parallel engine at 1/2/4/8 workers,
/// with a bit-identity check on every comparison.
///
/// `--json` additionally writes BENCH_scaling.json (scaling rows + the
/// engine comparison, including per-net effort aggregated from the
/// engine's trace events) for CI consumption. `--repeat N` times each
/// engine-comparison configuration N times (after one untimed warm-up)
/// and reports the median — the warm-up absorbs first-touch page faults
/// and allocator growth, the median rejects scheduler noise.
///
/// `--large` extends the memory study to the full 100k-net sparse-100k
/// instance (minutes of serial routing; default is the CI-bounded
/// sparse-100k-ci, same 200k-dbu die with 4000 nets).
///
/// `--service` switches to the job-service study instead: a batch of
/// materialized jobs through service::JobExecutor at 1/2/4 workers,
/// reporting jobs/sec and p50/p95 end-to-end latency (submit to
/// completion callback), with a determinism check across every result.
/// Combines with `--json`/`--repeat` the same way.
///
/// `--sweep N,N,...` switches to the net-count sweep instead: sparse-100k
/// truncated to each N nets, routed serially cold, reporting per-net µs
/// with host provenance (nproc, build type, compiler, git revision).
/// Routing cost linear in the net count keeps per-net µs flat.
///
/// `--label L` stamps every row with "label": L. `--append` merges the
/// rows into an existing BENCH_scaling.json (io::merge_bench_rows) instead
/// of overwriting it: a row replaces only the row with the same
/// (label, kind, instance, mode, threads), so committed history survives.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench_data/levelb_instance.hpp"
#include "engine/engine.hpp"
#include "io/bench_rows.hpp"
#include "levelb/router.hpp"
#include "service/executor.hpp"
#include "service/job.hpp"
#include "service/journal.hpp"
#include "util/fault.hpp"
#include "util/manifest.hpp"
#include "util/mem.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace {

using namespace ocr;
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

/// Full level-B run: grid size and net count as benchmark args.
void BM_LevelBRoute(benchmark::State& state) {
  const auto size = static_cast<geom::Coord>(state.range(0));
  const int nets = static_cast<int>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    util::Rng rng(5);
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, size, size), 9, 11);
    auto bnets = random_nets(rng, size, nets);
    levelb::LevelBRouter router(grid);
    state.ResumeTiming();
    benchmark::DoNotOptimize(router.route(bnets));
  }
}
BENCHMARK(BM_LevelBRoute)
    ->Args({500, 25})
    ->Args({1000, 25})
    ->Args({2000, 25})
    ->Args({1000, 50})
    ->Args({1000, 100})
    ->Unit(benchmark::kMillisecond);

/// Same instance through the parallel engine; third arg = worker threads.
void BM_EngineRoute(benchmark::State& state) {
  const auto size = static_cast<geom::Coord>(state.range(0));
  const int nets = static_cast<int>(state.range(1));
  const int threads = static_cast<int>(state.range(2));
  for (auto _ : state) {
    state.PauseTiming();
    util::Rng rng(5);
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, size, size), 9, 11);
    auto bnets = random_nets(rng, size, nets);
    engine::EngineOptions options;
    options.threads = threads;
    engine::RoutingEngine router(grid, options);
    state.ResumeTiming();
    benchmark::DoNotOptimize(router.route(bnets));
  }
}
BENCHMARK(BM_EngineRoute)
    ->Args({1000, 100, 1})
    ->Args({1000, 100, 2})
    ->Args({1000, 100, 4})
    ->Args({1000, 100, 8})
    ->Unit(benchmark::kMillisecond);

std::vector<std::pair<geom::Coord, int>> scaling_instances() {
  return {{500, 25}, {1000, 25}, {2000, 25}, {1000, 50}, {1000, 100}};
}

void print_scaling_table(util::TraceSink* json) {
  util::TextTable table;
  table.set_header({"Grid (h x v)", "Nets", "Vertices examined",
                    "examined / (n*sqrt(hv))", "Completion"});
  for (const auto& [size, nets] : scaling_instances()) {
    util::Rng rng(5);
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, size, size), 9, 11);
    auto bnets = random_nets(rng, size, nets);
    levelb::LevelBRouter router(grid);
    const auto result = router.route(bnets);
    const double hv = static_cast<double>(grid.num_h()) * grid.num_v();
    // The windowed MBFS touches ~O(h + v) track segments per connection in
    // practice — far below the worst-case O(h*v) bound.
    const double norm = static_cast<double>(result.vertices_examined) /
                        (nets * std::sqrt(hv));
    table.add_row({util::format("%d x %d", grid.num_h(), grid.num_v()),
                   util::format("%d", nets),
                   util::format("%lld", result.vertices_examined),
                   util::format("%.2f", norm),
                   util::format("%.3f", result.completion_rate())});
    if (json != nullptr) {
      util::TraceEvent ev("scaling");
      ev.add("grid_h", grid.num_h())
          .add("grid_v", grid.num_v())
          .add("nets", nets)
          .add("vertices_examined",
               static_cast<long long>(result.vertices_examined))
          .add("normalized", norm)
          .add("completion", result.completion_rate());
      json->record(std::move(ev));
    }
  }
  std::puts("\nScaling study (paper §3.4: time O(n*h*v) worst case)");
  std::fputs(table.render().c_str(), stdout);
  std::puts("A flat normalized column means the windowed search behaves "
            "like O(n*sqrt(h*v))\non sparse instances — comfortably inside "
            "the paper's O(n*h*v) bound.");
}

/// Reads an integer field back out of a recorded trace event (the sink
/// stores JSON-ready values; integers round-trip exactly).
long long trace_field(const util::TraceEvent& ev, const char* key) {
  for (const auto& [k, v] : ev.fields) {
    if (k == key) return std::strtoll(v.to_json().c_str(), nullptr, 10);
  }
  return 0;
}

/// Runs \p body `repeat` times after one untimed warm-up (skipped when
/// repeat == 1, preserving the single-shot behaviour) and returns the
/// median of the wall times \p body reports. \p body does its own setup
/// and timing so only the intended region is measured. The warm-up
/// absorbs first-touch page faults and allocator growth; the median
/// rejects scheduler noise. Every iteration computes identical results,
/// so the last iteration's side effects are as good as any.
template <typename Body>
double median_wall_ms(int repeat, Body&& body) {
  if (repeat > 1) body();  // warm-up
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(repeat));
  for (int r = 0; r < repeat; ++r) ms.push_back(body());
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// Serial vs the sharded engine on the largest scaling instance: wall
/// clock, identity of the results, batch counters, and per-net effort
/// aggregated from the engine's trace stream.
void print_engine_comparison(util::TraceSink* json, int repeat) {
  const geom::Coord size = 1000;
  const int nets = 100;
  const auto make_instance = [&] {
    util::Rng rng(5);
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, size, size), 9, 11);
    return std::make_pair(std::move(grid), random_nets(rng, size, nets));
  };

  levelb::LevelBResult expected;
  const double serial_ms = median_wall_ms(repeat, [&] {
    auto [grid, nets_copy] = make_instance();
    levelb::LevelBRouter serial(grid);
    const auto t0 = std::chrono::steady_clock::now();
    expected = serial.route(nets_copy);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  });

  util::TextTable table;
  table.set_header({"Mode", "Threads", "Wall ms", "Speedup", "Identical",
                    "Batches", "Committed", "Re-routed", "Max net us"});
  table.add_row({"serial", "1", util::format("%.1f", serial_ms), "1.00x",
                 "-", "-", "-", "-", "-"});

  // The nets here are uniformly random (no locality), so the shard
  // planner mostly degrades to singleton batches — the interesting
  // contrast with bench_mbfs's sparse-5000, where locality gives sharding
  // wide batches.
  const char* mode_name =
      engine::engine_mode_name(engine::EngineMode::kSharded);
  double one_thread_ms = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    levelb::LevelBResult result;
    engine::EngineStats stats;
    long long max_net_us = 0;
    const double ms = median_wall_ms(repeat, [&] {
      auto [grid, nets_copy] = make_instance();
      util::TraceSink trace;
      engine::EngineOptions options;
      options.threads = threads;
      options.mode = engine::EngineMode::kSharded;
      options.levelb.trace = &trace;
      engine::RoutingEngine router(grid, options);
      const auto start = std::chrono::steady_clock::now();
      result = router.route(nets_copy);
      const double wall = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      stats = router.stats();
      // Trace consumption: fold the per-net events into run aggregates.
      max_net_us = 0;
      for (const util::TraceEvent& ev : trace.events()) {
        max_net_us = std::max(max_net_us, trace_field(ev, "search_us"));
      }
      return wall;
    });
    if (threads == 1) one_thread_ms = ms;
    const bool identical = result == expected;
    table.add_row(
        {mode_name, util::format("%d", threads), util::format("%.1f", ms),
         util::format("%.2fx", serial_ms / ms), identical ? "yes" : "NO",
         threads > 1 ? util::format("%lld", stats.batches) : "-",
         threads > 1 ? util::format("%lld", stats.sharded_commits) : "-",
         threads > 1 ? util::format("%lld", stats.boundary_nets) : "-",
         util::format("%lld", max_net_us)});
    if (json != nullptr) {
      util::TraceEvent ev("engine_compare");
      ev.add("mode", mode_name)
          .add("engine_mode", stats.mode)
          .add("threads", threads)
          .add("wall_ms", ms)
          .add("serial_ms", serial_ms)
          .add("speedup_vs_1t",
               ms > 0.0 && one_thread_ms > 0.0 ? one_thread_ms / ms : 0.0)
          .add("identical", identical)
          .add("batches", stats.batches)
          .add("sharded_commits", stats.sharded_commits)
          .add("boundary_nets", stats.boundary_nets)
          .add("sharded_wasted_vertices", stats.sharded_wasted_vertices)
          .add("sharded_wasted_search_us", stats.sharded_wasted_search_us)
          .add("max_net_search_us", max_net_us)
          .add("worker_failures", stats.worker_failures)
          .add("fault_reroutes", stats.fault_reroutes)
          .add("fault_drops", stats.fault_drops)
          .add("pool_task_failures", stats.pool_task_failures)
          .add("failed_nets", result.failed_nets);
      json->record(std::move(ev));
    }
  }
  std::printf("\nEngine comparison (grid %lld, %d nets, %d repeat%s, "
              "median; identity checked against the serial router)\n",
              static_cast<long long>(size), nets, repeat,
              repeat == 1 ? "" : "s");
  std::fputs(table.render().c_str(), stdout);
}

/// Fault-tolerance study: the same instance with injected faults and an
/// effort budget, measuring how much the degradation ladder recovers.
/// Counters land in BENCH_scaling.json so CI can track regressions in
/// the recovery behaviour, not just the happy path.
void print_resilience_table(util::TraceSink* json) {
  const geom::Coord size = 1000;
  const int nets = 100;

  util::TextTable table;
  table.set_header({"Scenario", "Threads", "Complete", "Reroutes",
                    "Recovered", "Drops", "Budget", "Faults"});
  struct Scenario {
    const char* name;
    const char* faults;
    long long budget;
    int threads;
  };
  const Scenario scenarios[] = {
      {"clean", "", 0, 4},
      {"commit faults 10%", "engine.committer.commit=~0.1;seed=1", 0, 4},
      {"worker faults 10%", "engine.worker.route=~0.1;seed=1", 0, 4},
      {"apply faults 5%", "engine.committer.apply=~0.05;seed=1", 0, 4},
      {"tight budget", "", 400, 4},
      {"connect faults 5%", "levelb.connect=~0.05;seed=1", 0, 1},
  };
  for (const Scenario& s : scenarios) {
    util::FaultRegistry& registry = util::FaultRegistry::global();
    if (registry.configure(s.faults).ok() == false) continue;
    util::Rng rng(5);
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, size, size), 9, 11);
    auto bnets = random_nets(rng, size, nets);
    engine::EngineOptions options;
    options.threads = s.threads;
    options.levelb.net_vertex_budget = s.budget;
    engine::RoutingEngine router(grid, options);
    const levelb::LevelBResult result = router.route(bnets);
    const engine::EngineStats& stats = router.stats();
    const long long fired = registry.fired_count();
    registry.clear();

    table.add_row({s.name, util::format("%d", s.threads),
                   util::format("%d/%d", result.routed_nets, nets),
                   util::format("%lld",
                                stats.fault_reroutes + stats.worker_failures),
                   util::format("%d", result.ripup_recovered),
                   util::format("%lld", stats.fault_drops),
                   util::format("%d", result.budget_nets),
                   util::format("%lld", fired)});
    if (json != nullptr) {
      util::TraceEvent ev("resilience");
      ev.add("scenario", s.name)
          .add("threads", s.threads)
          .add("routed_nets", result.routed_nets)
          .add("failed_nets", result.failed_nets)
          .add("fault_reroutes", stats.fault_reroutes)
          .add("worker_failures", stats.worker_failures)
          .add("ripup_recovered", result.ripup_recovered)
          .add("fault_drops", stats.fault_drops)
          .add("budget_nets", result.budget_nets)
          .add("cancelled_nets", result.cancelled_nets)
          .add("pool_task_failures", stats.pool_task_failures)
          .add("faults_injected", fired);
      json->record(std::move(ev));
    }
  }
  std::puts("\nResilience study (injected faults vs the degradation "
            "ladder; same instance as above)");
  std::fputs(table.render().c_str(), stdout);
}

/// Large-instance memory study: routes a 200k-dbu-die instance
/// (sparse-100k-ci by default; `--large` swaps in the full 100k-net
/// sparse-100k) serially and through the 4-thread sharded engine, recording
/// wall clock, routed nets, the grid's occupancy bytes, the search
/// arenas' high-water marks and the process peak RSS. These are the
/// chunked-storage before/after datapoints: the die carries ~40k tracks,
/// and the numbers here are what a dense per-track representation pays
/// for all of them.
void print_memory_table(util::TraceSink* json, int repeat, bool large) {
  util::TextTable table;
  table.set_header({"Instance", "Nets", "Mode", "Wall ms", "Routed",
                    "Identical", "Grid MB", "Arena KB", "Peak RSS MB"});

  // One spec per invocation: `--large` swaps the CI-bounded instance for
  // the full 100k-net one instead of adding it, so a `--memory-only
  // --large` capture measures the big instance in a fresh process.
  std::vector<bench_data::LevelBSpec> specs;
  specs.push_back(large ? bench_data::sparse100k_spec()
                        : bench_data::sparse100k_ci_spec());

  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  for (const bench_data::LevelBSpec& spec : specs) {
    const bench_data::LevelBInstance inst =
        bench_data::generate_levelb_instance(spec);

    levelb::LevelBResult expected;
    long long serial_grid_bytes = 0;
    long long serial_blocked_chunks = 0;
    long long serial_rss_kb = 0;
    const double serial_ms = median_wall_ms(repeat, [&] {
      tig::TrackGrid grid = inst.grid;
      levelb::LevelBRouter router(grid);
      const auto t0 = std::chrono::steady_clock::now();
      expected = router.route(inst.nets);
      const double wall = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      serial_grid_bytes = static_cast<long long>(grid.grid_bytes());
      serial_blocked_chunks = static_cast<long long>(grid.blocked_chunks());
      // Peak RSS of the *first* (cold) route: later iterations only
      // measure allocator reuse/fragmentation, not the router.
      if (serial_rss_kb == 0) serial_rss_kb = util::peak_rss_kb();
      return wall;
    });

    levelb::LevelBResult sharded;
    long long sharded_grid_bytes = 0;
    long long sharded_blocked_chunks = 0;
    long long sharded_rss_kb = 0;
    engine::EngineStats stats;
    const double sharded_ms = median_wall_ms(repeat, [&] {
      tig::TrackGrid grid = inst.grid;
      engine::EngineOptions options;
      options.threads = 4;
      options.mode = engine::EngineMode::kSharded;
      engine::RoutingEngine router(grid, options);
      const auto t0 = std::chrono::steady_clock::now();
      sharded = router.route(inst.nets);
      const double wall = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      sharded_grid_bytes = static_cast<long long>(grid.grid_bytes());
      sharded_blocked_chunks = static_cast<long long>(grid.blocked_chunks());
      stats = router.stats();
      if (sharded_rss_kb == 0) sharded_rss_kb = util::peak_rss_kb();
      return wall;
    });
    const bool identical = sharded == expected;

    const long long arena_hw =
        metrics.gauge("levelb.arena_high_water_bytes").value();
    struct Row {
      const char* mode;
      double wall_ms;
      int routed;
      const char* identical;
      long long grid_bytes;
      long long blocked_chunks;
      long long batches;
      long long boundary_nets;
      long long rss_kb;  ///< process peak after this mode's first (cold)
                         ///< route (monotonic: includes what ran before)
    };
    const Row rows[] = {
        {"serial", serial_ms, expected.routed_nets, "-", serial_grid_bytes,
         serial_blocked_chunks, 0, 0, serial_rss_kb},
        {"sharded-4t", sharded_ms, sharded.routed_nets,
         identical ? "yes" : "NO", sharded_grid_bytes, sharded_blocked_chunks,
         stats.batches, stats.boundary_nets, sharded_rss_kb},
    };
    for (const Row& row : rows) {
      table.add_row({spec.name, util::format("%d", spec.num_nets), row.mode,
                     util::format("%.1f", row.wall_ms),
                     util::format("%d", row.routed), row.identical,
                     util::format("%.2f", row.grid_bytes / 1e6),
                     util::format("%lld", arena_hw / 1024),
                     util::format("%.1f", row.rss_kb / 1024.0)});
      if (json != nullptr) {
        util::TraceEvent ev("memory");
        ev.add("instance", spec.name)
            .add("storage", "chunked")
            .add("nets", spec.num_nets)
            .add("grid_h", inst.grid.num_h())
            .add("grid_v", inst.grid.num_v())
            .add("mode", row.mode)
            .add("wall_ms", row.wall_ms)
            .add("routed_nets", row.routed)
            .add("identical", std::strcmp(row.identical, "NO") != 0)
            .add("grid_bytes", row.grid_bytes)
            .add("blocked_chunks", row.blocked_chunks)
            .add("batches", row.batches)
            .add("boundary_nets", row.boundary_nets)
            .add("arena_high_water_bytes", arena_hw)
            .add("arena_reserved_bytes",
                 metrics.gauge("levelb.arena_reserved_bytes").value())
            .add("peak_rss_kb", row.rss_kb);
        json->record(std::move(ev));
      }
    }
  }
  std::printf("\nLarge-instance memory study (200k-dbu die, ~40k tracks; "
              "%s)\n",
              large ? "full 100k-net instance (--large)"
                    : "CI-bounded net count; --large swaps in the 100k-net "
                      "instance");
  std::fputs(table.render().c_str(), stdout);
}

/// Net-count sweep (`--sweep`): sparse-100k truncated to each of
/// \p points nets, routed serially from a cold grid copy. Per-net µs
/// stays flat when routing cost is linear in the net count; the dup cost
/// term's scan of every unrouted terminal used to make it grow with N.
void print_net_sweep(util::TraceSink* json, int repeat,
                     const std::vector<int>& points) {
  util::TextTable table;
  table.set_header({"Nets", "Wall ms", "Per-net us", "Routed",
                    "Vertices examined"});
  double min_us = 0.0;
  double max_us = 0.0;
  for (const int n : points) {
    bench_data::LevelBSpec spec = bench_data::sparse100k_spec();
    spec.num_nets = n;
    const bench_data::LevelBInstance inst =
        bench_data::generate_levelb_instance(spec);
    levelb::LevelBResult result;
    const double wall_ms = median_wall_ms(repeat, [&] {
      tig::TrackGrid grid = inst.grid;
      levelb::LevelBRouter router(grid);
      const auto t0 = std::chrono::steady_clock::now();
      result = router.route(inst.nets);
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
          .count();
    });
    const double per_net_us = 1000.0 * wall_ms / n;
    min_us = min_us == 0.0 ? per_net_us : std::min(min_us, per_net_us);
    max_us = std::max(max_us, per_net_us);
    table.add_row({util::format("%d", n), util::format("%.1f", wall_ms),
                   util::format("%.1f", per_net_us),
                   util::format("%d", result.routed_nets),
                   util::format("%lld", result.vertices_examined)});
    if (json != nullptr) {
      util::TraceEvent ev("net_sweep");
      ev.add("instance", util::format("%s/%d", spec.name.c_str(), n))
          .add("mode", "serial")
          .add("threads", 1)
          .add("nets", n)
          .add("wall_ms", wall_ms)
          .add("per_net_us", per_net_us)
          .add("routed_nets", result.routed_nets)
          .add("vertices_examined", result.vertices_examined)
          .add("repeat", repeat)
          .add("nproc", util::ThreadPool::hardware_threads())
          .add("build_type", util::build_type())
          .add("compiler", util::build_compiler())
          .add("git_revision", util::build_git_revision());
      json->record(std::move(ev));
    }
  }
  std::printf("\nNet-count sweep (sparse-100k die truncated to N nets, "
              "serial cold route; %d hardware threads, %s, %s, rev %s)\n",
              util::ThreadPool::hardware_threads(), util::build_type(),
              util::build_compiler(), util::build_git_revision());
  std::fputs(table.render().c_str(), stdout);
  if (min_us > 0.0) {
    std::printf("per-net us max/min across the sweep: %.2fx\n",
                max_us / min_us);
  }
}

/// Service throughput study (`--service`): a fixed batch of ami33 jobs
/// through the JobExecutor at 1/2/4 workers. Latency is end-to-end per
/// job — submit() to the completion callback, so queue wait counts —
/// and the determinism column checks that every job of every repeat at
/// every worker count produced the same clean wire length.
void print_service_table(util::TraceSink* json, int repeat) {
  constexpr int kJobs = 24;

  util::TextTable table;
  table.set_header({"Workers", "Journal", "Jobs", "Wall ms", "Jobs/sec",
                    "p50 ms", "p95 ms", "Identical"});

  long long wire = -1;  // first clean result; shared across all rows
  for (const int workers : {1, 2, 4}) {
  for (const bool journaled : {false, true}) {
    // The recovery datapoint: the same batch with the write-ahead job
    // journal on, measuring what fsync-batched durability costs.
    const std::string journal_path =
        util::format("bench_scaling_journal_w%d.jsonl", workers);
    std::vector<double> latencies;  // pooled over the timed repeats
    std::vector<double> walls;
    bool identical = true;
    const int runs = repeat > 1 ? repeat + 1 : repeat;  // +1 warm-up
    for (int r = 0; r < runs; ++r) {
      const bool warmup = repeat > 1 && r == 0;

      service::JobSpec spec;
      spec.example = "ami33";
      std::vector<service::RoutingJob> jobs;
      jobs.reserve(kJobs);
      for (int i = 0; i < kJobs; ++i) {
        auto job = service::materialize(spec);
        if (!job.ok()) {
          std::fprintf(stderr, "error: materialize: %s\n",
                       job.status().to_string().c_str());
          std::exit(1);
        }
        jobs.push_back(std::move(job).value());
      }

      std::remove(journal_path.c_str());
      service::Journal journal;
      if (journaled) {
        const util::Status opened = journal.open(journal_path);
        if (!opened.ok()) {
          std::fprintf(stderr, "error: %s\n", opened.to_string().c_str());
          std::exit(1);
        }
      }
      service::JobExecutor::Options options;
      options.workers = workers;
      options.admission.queue_limit = kJobs;  // the study never rejects
      options.journal = journaled ? &journal : nullptr;
      service::JobExecutor executor(options);

      std::mutex mu;
      std::vector<double> batch;
      batch.reserve(kJobs);
      const auto t0 = std::chrono::steady_clock::now();
      for (auto& job : jobs) {
        const auto submitted = std::chrono::steady_clock::now();
        executor.submit(
            std::move(job), [&, submitted](service::JobResult result) {
              const double ms =
                  std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - submitted)
                      .count();
              const long long w = result.report.metrics.wire_length;
              std::lock_guard<std::mutex> lock(mu);
              batch.push_back(ms);
              if (result.exit_class() != 0) identical = false;
              if (wire < 0) wire = w;
              if (w != wire) identical = false;
            });
      }
      executor.drain();
      const double wall = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      journal.close();
      std::remove(journal_path.c_str());
      if (warmup) continue;
      walls.push_back(wall);
      latencies.insert(latencies.end(), batch.begin(), batch.end());
    }

    std::sort(walls.begin(), walls.end());
    std::sort(latencies.begin(), latencies.end());
    const double wall_ms = walls[walls.size() / 2];
    const double jobs_per_sec = wall_ms > 0.0 ? kJobs * 1000.0 / wall_ms : 0.0;
    const double p50 = latencies[latencies.size() / 2];
    const double p95 = latencies[latencies.size() * 95 / 100];
    table.add_row({util::format("%d", workers), journaled ? "on" : "off",
                   util::format("%d", kJobs), util::format("%.1f", wall_ms),
                   util::format("%.2f", jobs_per_sec),
                   util::format("%.1f", p50), util::format("%.1f", p95),
                   identical ? "yes" : "NO"});
    if (json != nullptr) {
      util::TraceEvent ev("service");
      ev.add("workers", workers)
          .add("journal", journaled)
          .add("jobs", kJobs)
          .add("repeat", repeat)
          .add("wall_ms", wall_ms)
          .add("jobs_per_sec", jobs_per_sec)
          .add("p50_ms", p50)
          .add("p95_ms", p95)
          .add("identical", identical)
          .add("wire_length", wire);
      json->record(std::move(ev));
    }
  }
  }
  std::puts("\nService study (ami33 jobs through the executor; latency "
            "is submit -> completion,\nso queue wait counts; journal rows "
            "pay the write-ahead log's fsync batching;\nidentity checked "
            "across every result)");
  std::fputs(table.render().c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool write_json = false;
  bool append = false;
  bool service_mode = false;
  bool large = false;
  bool memory_only = false;
  int repeat = 1;
  std::string label;
  std::vector<int> sweep;
  // Strip our flags before google-benchmark parses the rest.
  for (int i = 1; i < argc;) {
    if (std::strcmp(argv[i], "--json") == 0) {
      write_json = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else if (std::strcmp(argv[i], "--append") == 0) {
      append = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
    } else if (std::strcmp(argv[i], "--sweep") == 0 && i + 1 < argc) {
      for (const std::string& point : util::split(argv[i + 1], ',')) {
        const util::StatusOr<long long> n =
            util::parse_int(point, 1, 1000000);
        if (!n.ok()) {
          std::fprintf(stderr, "--sweep: %s\n",
                       n.status().message().c_str());
          return 2;
        }
        sweep.push_back(static_cast<int>(*n));
      }
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
    } else if (std::strcmp(argv[i], "--service") == 0) {
      service_mode = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else if (std::strcmp(argv[i], "--large") == 0) {
      large = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else if (std::strcmp(argv[i], "--memory-only") == 0) {
      // Run just the memory study in a fresh process, so its peak-RSS
      // rows are not inflated by the preceding studies' footprints —
      // this is how comparable before/after capture runs are made.
      memory_only = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      const util::StatusOr<long long> n = util::parse_int(argv[i + 1], 1, 1000);
      if (!n.ok()) {
        std::fprintf(stderr, "--repeat: %s\n", n.status().message().c_str());
        return 2;
      }
      repeat = static_cast<int>(*n);
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
    } else {
      ++i;
    }
  }
  if (append && label.empty()) {
    std::fputs("--append requires --label\n", stderr);
    return 2;
  }
  write_json = write_json || append;
  benchmark::Initialize(&argc, argv);
  if (!service_mode && sweep.empty()) benchmark::RunSpecifiedBenchmarks();

  util::TraceSink json;
  util::TraceSink* sink = write_json ? &json : nullptr;
  if (!sweep.empty()) {
    print_net_sweep(sink, repeat, sweep);
  } else if (service_mode) {
    print_service_table(sink, repeat);
  } else if (memory_only) {
    print_memory_table(sink, repeat, large);
  } else {
    print_scaling_table(sink);
    print_engine_comparison(sink, repeat);
    print_resilience_table(sink);
    print_memory_table(sink, repeat, large);
  }
  if (write_json) {
    const std::string path = "BENCH_scaling.json";
    std::vector<util::TraceEvent> rows = json.events();
    if (!label.empty()) {
      for (util::TraceEvent& row : rows) {
        row.fields.insert(row.fields.begin(), {"label", label});
      }
    }
    if (append) {
      const util::Status merged = io::merge_bench_rows(path, rows);
      if (!merged.ok()) {
        std::fprintf(stderr, "error: %s\n", merged.to_string().c_str());
        return 1;
      }
      std::printf("\nmerged %zu records into %s\n", rows.size(),
                  path.c_str());
    } else {
      util::TraceSink labelled;
      for (util::TraceEvent& row : rows) labelled.record(std::move(row));
      if (!labelled.write_json_file(path)) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("\nwrote %s (%zu records)\n", path.c_str(),
                  labelled.size());
    }

    // Companion run manifest (see docs/OBSERVABILITY.md): config,
    // provenance and the metrics accumulated across every table run.
    util::RunManifest manifest("bench_scaling");
    manifest.add_config("repeat", repeat);
    manifest.add_config("service", service_mode);
    manifest.add_config("large", large);
    manifest.add_config("memory_only", memory_only);
    manifest.add_config("label", label);
    manifest.add_config("append", append);
    manifest.add_outcome("records", static_cast<long long>(json.size()));
    manifest.capture_metrics(util::MetricsRegistry::global());
    const std::string mpath = "BENCH_scaling.manifest.json";
    if (!manifest.write_json_file(mpath)) {
      std::fprintf(stderr, "error: cannot write %s\n", mpath.c_str());
      return 1;
    }
    std::printf("wrote %s (run manifest)\n", mpath.c_str());
  }
  return 0;
}
