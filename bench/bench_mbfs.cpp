/// \file bench_mbfs.cpp
/// \brief MBFS hot-path microbenchmark harness: connect-level throughput
/// of the level-B path finder (paper §3.1/§3.2) on synthetic and
/// ami33-derived instances.
///
/// Two measurement families:
///
/// * **Connect sweep** — the grid is first routed to its final occupancy,
///   then every net's two-terminal connections are re-searched against
///   that congested state. Each PathFinder::connect call is timed
///   individually, giving connects/sec, MBFS vertices/sec and p50/p95
///   per-connect latency (nearest-rank percentiles). The sweep also runs
///   on 2/4/8 threads (one private grid copy per thread) to expose
///   allocator contention in the hot path; the threaded percentiles pool
///   every thread's samples.
/// * **Full route** — wall clock of the serial router and the sharded
///   parallel engine at 1/2/4/8 workers, with a bit-identity check
///   against the serial result on every engine run.
///
/// `--repeat N` (default 3) runs each timed section N times after one
/// warm-up and reports the median. `--quick` shrinks the instance set and
/// repeats for CI smoke use. `--json` writes BENCH_mbfs.json. `--label S`
/// tags every JSON record (used to distinguish before/after captures).
/// `--append` (needs `--label`) merges the records into an existing
/// BENCH_mbfs.json (io::merge_bench_rows) instead of overwriting it: a
/// record replaces only the one with the same (label, kind, instance,
/// mode, threads), so committed history survives. The `mbfs_meta` record
/// carries the host provenance (nproc, build type, compiler, git
/// revision).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_data/levelb_instance.hpp"
#include "bench_data/synthetic.hpp"
#include "engine/engine.hpp"
#include "floorplan/macro_layout.hpp"
#include "io/bench_rows.hpp"
#include "levelb/router.hpp"
#include "levelb/workspace.hpp"
#include "netlist/layout.hpp"
#include "tig/track_grid.hpp"
#include "util/manifest.hpp"
#include "util/mem.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/thread_pool.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace {

using namespace ocr;
using geom::Point;
using geom::Rect;

double ms_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Lower median of a sample (deterministic for even sizes).
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[(v.size() - 1) / 2];
}

/// Nearest-rank percentile of a sorted sample, q in [0, 1].
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

/// A pristine routing instance: grid + nets, never mutated in place.
struct Instance {
  std::string name;
  tig::TrackGrid grid;
  std::vector<levelb::BNet> nets;
  /// Skip the connect sweep (full-route rows only) — used for the large
  /// scaling instance, whose sweep would dominate quick-mode runtime
  /// without measuring anything the smaller instances don't.
  bool route_only = false;
};

std::vector<levelb::BNet> random_nets(util::Rng& rng, geom::Coord size,
                                      int count) {
  // Same generator as bench_scaling so the instances line up across the
  // two harnesses.
  std::vector<levelb::BNet> nets;
  for (int n = 0; n < count; ++n) {
    levelb::BNet net{n, {}, false};
    const int degree = static_cast<int>(rng.uniform_int(2, 4));
    for (int t = 0; t < degree; ++t) {
      net.terminals.push_back(
          Point{rng.uniform_int(0, size - 1), rng.uniform_int(0, size - 1)});
    }
    nets.push_back(std::move(net));
  }
  return nets;
}

Instance synthetic_instance(const char* name, geom::Coord size, int count,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  Instance inst{name, tig::TrackGrid::uniform(Rect(0, 0, size, size), 9, 11),
                {}};
  inst.nets = random_nets(rng, size, count);
  return inst;
}

// ---- connect sweep ------------------------------------------------------

/// Final-occupancy grid plus the snapped terminals that produced it.
struct Prepared {
  tig::TrackGrid grid;
  std::vector<std::vector<Point>> snapped;  ///< by net index
};

/// Routes the instance serially (first pass only, no rip-up) so the sweep
/// queries run against realistic end-state congestion.
Prepared prepare_final_occupancy(const Instance& inst) {
  Prepared p{inst.grid, {}};
  const std::vector<std::size_t> order =
      levelb::order_nets(inst.nets, levelb::NetOrdering::kLongestFirst);
  p.snapped = levelb::snap_and_reserve_terminals(p.grid, inst.nets);
  const levelb::LevelBOptions options;
  const levelb::UnroutedSuffix unrouted(p.snapped, order, p.grid, options);
  levelb::SearchStats stats;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const levelb::BNet& net = inst.nets[order[k]];
    for (const Point& pt : p.snapped[order[k]]) {
      levelb::unblock_terminal(p.grid, pt);
    }
    std::vector<levelb::Committed> committed;
    levelb::route_single_net(
        p.grid, options,
        levelb::NetRouteRequest{net.id, &p.snapped[order[k]], &unrouted, k,
                                nullptr},
        committed, stats);
    for (const Point& pt : p.snapped[order[k]]) {
      levelb::block_terminal(p.grid, pt);
    }
    levelb::commit_extents(p.grid, committed);
  }
  return p;
}

/// One two-terminal search of the sweep.
struct Query {
  std::size_t net = 0;  ///< net index (its terminals are unblocked around
                        ///< the connect, like a real retry)
  Point a;
  Point b;
};

std::vector<Query> make_queries(const Prepared& p) {
  std::vector<Query> queries;
  for (std::size_t n = 0; n < p.snapped.size(); ++n) {
    // Consecutive distinct snapped terminal pairs.
    std::vector<Point> distinct;
    for (const Point& t : p.snapped[n]) {
      if (std::find(distinct.begin(), distinct.end(), t) == distinct.end()) {
        distinct.push_back(t);
      }
    }
    for (std::size_t t = 0; t + 1 < distinct.size(); ++t) {
      queries.push_back(Query{n, distinct[t], distinct[t + 1]});
    }
  }
  return queries;
}

struct SweepResult {
  double wall_ms = 0.0;
  long long vertices = 0;
  long long found = 0;  ///< determinism checksum (connects that succeeded)
  std::vector<double> latencies_us;  ///< per-connect, latency pass only
};

/// Runs every query once against \p grid (a private copy of the prepared
/// occupancy). \p record_latency additionally captures per-call times.
SweepResult run_sweep(const Prepared& p, const std::vector<Query>& queries,
                      tig::TrackGrid& grid, bool record_latency) {
  SweepResult out;
  if (record_latency) out.latencies_us.reserve(queries.size());
  const levelb::PathFinder finder(grid, levelb::PathFinderOptions{});
  const levelb::CostContext ctx = levelb::make_cost_context(grid);
  // Caller-owned scratch, reused across the whole sweep — the same
  // lifecycle the serial router and engine workers use.
  levelb::SearchWorkspace ws;
  const auto t0 = std::chrono::steady_clock::now();
  for (const Query& q : queries) {
    for (const Point& t : p.snapped[q.net]) {
      levelb::unblock_terminal(grid, t);
    }
    const auto s = std::chrono::steady_clock::now();
    const levelb::PathFinder::Result r = finder.connect(q.a, q.b, ctx, ws);
    if (record_latency) out.latencies_us.push_back(ms_since(s) * 1000.0);
    out.vertices += r.stats.vertices_examined;
    out.found += r.found ? 1 : 0;
    for (const Point& t : p.snapped[q.net]) {
      levelb::block_terminal(grid, t);
    }
  }
  out.wall_ms = ms_since(t0);
  return out;
}

struct ConnectRow {
  int threads = 1;
  long long connects = 0;
  double wall_ms = 0.0;          ///< median across repeats
  double connects_per_sec = 0.0;
  double vertices_per_sec = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
};

/// Single-thread sweep with repeats + latency percentiles.
ConnectRow connect_serial(const Prepared& p,
                          const std::vector<Query>& queries, int repeat) {
  ConnectRow row;
  row.connects = static_cast<long long>(queries.size());
  std::vector<double> walls;
  long long vertices = 0;
  std::vector<double> latencies;
  for (int r = 0; r <= repeat; ++r) {
    tig::TrackGrid grid = p.grid;
    SweepResult sweep = run_sweep(p, queries, grid, r == repeat);
    if (r == 0) continue;  // warm-up
    walls.push_back(sweep.wall_ms);
    vertices = sweep.vertices;
    if (!sweep.latencies_us.empty()) latencies = std::move(sweep.latencies_us);
  }
  row.wall_ms = median(walls);
  const double secs = row.wall_ms / 1000.0;
  row.connects_per_sec =
      secs > 0.0 ? static_cast<double>(row.connects) / secs : 0.0;
  row.vertices_per_sec =
      secs > 0.0 ? static_cast<double>(vertices) / secs : 0.0;
  std::sort(latencies.begin(), latencies.end());
  row.p50_us = percentile(latencies, 0.50);
  row.p95_us = percentile(latencies, 0.95);
  return row;
}

/// Multi-thread sweep: each thread runs the whole query list on its own
/// grid copy; wall = slowest thread. The last
/// repeat records per-connect latencies on every thread; the percentiles
/// come from the pooled samples, so p50/p95 reflect what any one connect
/// experienced under contention rather than a single thread's view.
ConnectRow connect_parallel(const Prepared& p,
                            const std::vector<Query>& queries, int threads,
                            int repeat) {
  ConnectRow row;
  row.threads = threads;
  row.connects = static_cast<long long>(queries.size()) * threads;
  std::vector<double> walls;
  long long vertices = 0;
  std::vector<double> latencies;
  for (int r = 0; r <= repeat; ++r) {
    const bool record_latency = r == repeat;
    std::vector<tig::TrackGrid> grids(static_cast<std::size_t>(threads),
                                      p.grid);
    std::vector<SweepResult> results(static_cast<std::size_t>(threads));
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        results[static_cast<std::size_t>(t)] =
            run_sweep(p, queries, grids[static_cast<std::size_t>(t)],
                      record_latency);
      });
    }
    for (std::thread& t : pool) t.join();
    const double wall = ms_since(t0);
    if (r == 0) continue;
    walls.push_back(wall);
    vertices = 0;
    for (SweepResult& sr : results) {
      vertices += sr.vertices;
      latencies.insert(latencies.end(), sr.latencies_us.begin(),
                       sr.latencies_us.end());
    }
  }
  row.wall_ms = median(walls);
  const double secs = row.wall_ms / 1000.0;
  row.connects_per_sec =
      secs > 0.0 ? static_cast<double>(row.connects) / secs : 0.0;
  row.vertices_per_sec =
      secs > 0.0 ? static_cast<double>(vertices) / secs : 0.0;
  std::sort(latencies.begin(), latencies.end());
  row.p50_us = percentile(latencies, 0.50);
  row.p95_us = percentile(latencies, 0.95);
  return row;
}

// ---- full route ---------------------------------------------------------

struct RouteRow {
  std::string mode;  ///< "serial" or "sharded"
  int threads = 1;
  double wall_ms = 0.0;  ///< median across repeats
  bool identical = true;
  int routed = 0;
  long long vertices = 0;
  // Engine work metrics (zero for the serial row). These are
  // hardware-independent: they gate scaling regressions even on hosts
  // where wall-clock speedup is noise (e.g. single-core CI runners).
  long long wasted_vertices = 0;  ///< discarded boundary-escape searches
  long long batches = 0;          ///< batches dispatched
  long long boundary_nets = 0;    ///< escapes re-routed
  double speedup_vs_1t = 0.0;  ///< same-mode-1-thread wall / this wall
  // Memory datapoints (chunked-storage accounting; see DESIGN.md §11).
  long long grid_bytes = 0;    ///< routed grid's occupancy bytes
  long long peak_rss_kb = 0;   ///< process high-water RSS after the run
};

RouteRow route_serial(const Instance& inst, int repeat,
                      levelb::LevelBResult& expected) {
  RouteRow row{"serial", 1, 0.0, true, 0, 0};
  std::vector<double> walls;
  for (int r = 0; r <= repeat; ++r) {
    tig::TrackGrid grid = inst.grid;
    levelb::LevelBRouter router(grid);
    const auto t0 = std::chrono::steady_clock::now();
    levelb::LevelBResult result = router.route(inst.nets);
    const double wall = ms_since(t0);
    if (r > 0) walls.push_back(wall);
    row.routed = result.routed_nets;
    row.vertices = result.vertices_examined;
    row.grid_bytes = static_cast<long long>(grid.grid_bytes());
    expected = std::move(result);
  }
  row.wall_ms = median(walls);
  row.peak_rss_kb = util::peak_rss_kb();
  return row;
}

RouteRow route_sharded(const Instance& inst, int threads, int repeat,
                       const levelb::LevelBResult& expected) {
  RouteRow row{"sharded", threads};
  std::vector<double> walls;
  for (int r = 0; r <= repeat; ++r) {
    tig::TrackGrid grid = inst.grid;
    engine::EngineOptions options;
    options.threads = threads;
    options.mode = engine::EngineMode::kSharded;
    engine::RoutingEngine router(grid, options);
    const auto t0 = std::chrono::steady_clock::now();
    const levelb::LevelBResult result = router.route(inst.nets);
    const double wall = ms_since(t0);
    if (r > 0) walls.push_back(wall);
    row.identical = result == expected;
    row.routed = result.routed_nets;
    row.vertices = result.vertices_examined;
    const engine::EngineStats& stats = router.stats();
    row.wasted_vertices = stats.sharded_wasted_vertices;
    row.batches = stats.batches;
    row.boundary_nets = stats.boundary_nets;
    row.grid_bytes = static_cast<long long>(grid.grid_bytes());
  }
  row.wall_ms = median(walls);
  row.peak_rss_kb = util::peak_rss_kb();
  return row;
}

// ---- driver -------------------------------------------------------------

struct Config {
  bool quick = false;
  bool json = false;
  int repeat = 3;
  std::string label = "current";
  bool append = false;  ///< merge into BENCH_mbfs.json (needs --label)
  bool connect_only = false;  ///< skip full-route rows (profiling aid)
};

/// Full-route comparison: serial baseline, then the sharded engine across
/// the thread sweep. Every engine run is identity-checked against the
/// serial result; speedup_vs_1t is relative to the engine at 1 thread
/// (= serial dispatch), which is what the CI scaling gate reads.
void run_route_rows(const Instance& inst, const Config& cfg,
                    util::TraceSink* json) {
  util::TextTable route_table;
  route_table.set_header({"Mode", "Threads", "Wall ms", "Speedup",
                          "Identical", "Routed", "Batches", "Boundary"});
  levelb::LevelBResult expected;
  const RouteRow serial = route_serial(inst, cfg.repeat, expected);
  route_table.add_row({serial.mode, "1", util::format("%.1f", serial.wall_ms),
                       "1.00x", "-", util::format("%d", serial.routed), "-",
                       "-"});
  std::vector<RouteRow> rows{serial};
  // Quick mode keeps the 1-thread engine run so speedup_vs_1t is always
  // derivable from a single JSON capture (the CI smoke gate reads it).
  const std::vector<int> route_threads =
      cfg.quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  double one_thread_ms = 0.0;
  for (const int threads : route_threads) {
    RouteRow row = route_sharded(inst, threads, cfg.repeat, expected);
    if (threads == 1) one_thread_ms = row.wall_ms;
    row.speedup_vs_1t = row.wall_ms > 0.0 && one_thread_ms > 0.0
                            ? one_thread_ms / row.wall_ms
                            : 0.0;
    route_table.add_row(
        {row.mode, util::format("%d", threads),
         util::format("%.1f", row.wall_ms),
         util::format("%.2fx", serial.wall_ms / row.wall_ms),
         row.identical ? "yes" : "NO", util::format("%d", row.routed),
         util::format("%lld", row.batches),
         util::format("%lld", row.boundary_nets)});
    rows.push_back(row);
  }
  std::printf("Full route (%d repeats, median)\n", cfg.repeat);
  std::fputs(route_table.render().c_str(), stdout);
  if (json != nullptr) {
    for (const RouteRow& row : rows) {
      util::TraceEvent ev("mbfs_route");
      ev.add("label", cfg.label)
          .add("instance", inst.name)
          .add("mode", row.mode)
          .add("threads", row.threads)
          .add("wall_ms", row.wall_ms)
          .add("identical", row.identical)
          .add("routed_nets", row.routed)
          .add("vertices", static_cast<long long>(row.vertices))
          .add("speedup_vs_1t", row.speedup_vs_1t)
          .add("wasted_vertices", row.wasted_vertices)
          .add("batches", row.batches)
          .add("boundary_nets", row.boundary_nets)
          .add("grid_bytes", row.grid_bytes)
          .add("peak_rss_kb", row.peak_rss_kb);
      json->record(std::move(ev));
    }
  }
  std::printf("memory: %s grid bytes (serial), %s KB peak RSS\n",
              util::with_commas(serial.grid_bytes).c_str(),
              util::with_commas(rows.back().peak_rss_kb).c_str());
}

void bench_instance(const Instance& inst, const Config& cfg,
                    util::TraceSink* json) {
  std::printf("\n=== %s: %d nets, grid %d x %d ===\n", inst.name.c_str(),
              static_cast<int>(inst.nets.size()), inst.grid.num_h(),
              inst.grid.num_v());

  if (inst.route_only) {
    run_route_rows(inst, cfg, json);
    return;
  }

  // Connect sweep.
  const Prepared prepared = prepare_final_occupancy(inst);
  const std::vector<Query> queries = make_queries(prepared);
  const std::vector<int> sweep_threads =
      cfg.quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  util::TextTable sweep_table;
  sweep_table.set_header({"Threads", "Connects", "Wall ms", "Connects/s",
                          "MVertices/s", "p50 us", "p95 us"});
  double sweep_1t_rate = 0.0;
  for (const int threads : sweep_threads) {
    const ConnectRow row =
        threads == 1
            ? connect_serial(prepared, queries, cfg.repeat)
            : connect_parallel(prepared, queries, threads, cfg.repeat);
    if (threads == 1) sweep_1t_rate = row.connects_per_sec;
    // Aggregate throughput per connect: >1x means the threads route more
    // connects per second together than one thread does alone.
    const double speedup_vs_1t =
        sweep_1t_rate > 0.0 ? row.connects_per_sec / sweep_1t_rate : 0.0;
    sweep_table.add_row(
        {util::format("%d", threads), util::format("%lld", row.connects),
         util::format("%.2f", row.wall_ms),
         util::format("%.0f", row.connects_per_sec),
         util::format("%.2f", row.vertices_per_sec / 1e6),
         util::format("%.1f", row.p50_us),
         util::format("%.1f", row.p95_us)});
    if (json != nullptr) {
      util::TraceEvent ev("mbfs_connect");
      ev.add("label", cfg.label)
          .add("instance", inst.name)
          .add("threads", threads)
          .add("connects", row.connects)
          .add("wall_ms", row.wall_ms)
          .add("connects_per_sec", row.connects_per_sec)
          .add("vertices_per_sec", row.vertices_per_sec)
          .add("p50_us", row.p50_us)
          .add("p95_us", row.p95_us)
          .add("speedup_vs_1t", speedup_vs_1t);
      json->record(std::move(ev));
    }
  }
  std::printf("Connect sweep (final-occupancy grid, %d repeats, median)\n",
              cfg.repeat);
  std::fputs(sweep_table.render().c_str(), stdout);
  if (cfg.connect_only) return;

  run_route_rows(inst, cfg, json);
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool labelled = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.quick = true;
      cfg.repeat = 1;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      cfg.json = true;
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      cfg.repeat = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      cfg.label = argv[++i];
      labelled = true;
    } else if (std::strcmp(argv[i], "--append") == 0) {
      cfg.append = true;
    } else if (std::strcmp(argv[i], "--connect-only") == 0) {
      cfg.connect_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_mbfs [--quick] [--json] [--repeat N] "
                   "[--label S] [--append] [--connect-only]\n");
      return 2;
    }
  }
  if (cfg.append && !labelled) {
    std::fputs("--append requires --label\n", stderr);
    return 2;
  }
  cfg.json = cfg.json || cfg.append;

  util::TraceSink json;
  util::TraceSink* sink = cfg.json ? &json : nullptr;
  if (sink != nullptr) {
    util::TraceEvent meta("mbfs_meta");
    meta.add("label", cfg.label)
        .add("quick", cfg.quick)
        .add("repeat", cfg.repeat)
        .add("nproc", util::ThreadPool::hardware_threads())
        .add("build_type", util::build_type())
        .add("compiler", util::build_compiler())
        .add("git_revision", util::build_git_revision());
    sink->record(std::move(meta));
  }

  std::vector<Instance> instances;
  instances.push_back(synthetic_instance("sparse-1000", 1000, 100, 5));
  if (!cfg.quick) {
    instances.push_back(synthetic_instance("dense-700", 700, 140, 7));
  }
  {
    bench_data::LevelBInstance ami33 = bench_data::ami33_levelb_instance();
    instances.push_back(Instance{std::move(ami33.name),
                                 std::move(ami33.grid),
                                 std::move(ami33.nets)});
  }
  // The scaling headliner: ~1.2k local nets on a 5000-dbu die. Full-route
  // rows only (its connect sweep would dwarf the others without adding
  // signal), in quick mode too — the CI sharded-speedup gate reads it.
  {
    bench_data::LevelBInstance big =
        bench_data::generate_levelb_instance(bench_data::sparse5000_spec());
    instances.push_back(Instance{std::move(big.name), std::move(big.grid),
                                 std::move(big.nets), /*route_only=*/true});
  }
  // The large-*grid* datapoint: the 200k-dbu die (~40k tracks) with a
  // CI-affordable net count. Chunked storage is what makes this row
  // possible at all — a dense grid would carry every track's containers
  // through all the per-thread copies. bench-smoke reads its peak RSS.
  {
    bench_data::LevelBInstance large =
        bench_data::generate_levelb_instance(bench_data::sparse100k_ci_spec());
    instances.push_back(Instance{std::move(large.name),
                                 std::move(large.grid),
                                 std::move(large.nets),
                                 /*route_only=*/true});
  }
  // Undocumented profiling aid: run a single instance by name.
  const char* only = std::getenv("BENCH_MBFS_ONLY");
  for (const Instance& inst : instances) {
    if (only != nullptr && inst.name != only) continue;
    bench_instance(inst, cfg, sink);
  }

  if (cfg.json) {
    const std::string path = "BENCH_mbfs.json";
    if (cfg.append) {
      const util::Status merged = io::merge_bench_rows(path, json.events());
      if (!merged.ok()) {
        std::fprintf(stderr, "error: %s\n", merged.to_string().c_str());
        return 1;
      }
      std::printf("\nmerged %zu records into %s\n", json.size(),
                  path.c_str());
    } else if (!json.write_json_file(path)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    } else {
      std::printf("\nwrote %s (%zu records)\n", path.c_str(), json.size());
    }

    // Companion run manifest: configuration + provenance + the metrics
    // the routed instances accumulated, so a captured number can be
    // traced back to the exact build and settings that produced it.
    util::RunManifest manifest("bench_mbfs");
    manifest.add_config("quick", cfg.quick);
    manifest.add_config("repeat", cfg.repeat);
    manifest.add_config("label", cfg.label);
    manifest.add_config("append", cfg.append);
    manifest.add_config("connect_only", cfg.connect_only);
    manifest.add_outcome("records", static_cast<long long>(json.size()));
    manifest.capture_metrics(util::MetricsRegistry::global());
    const std::string mpath = "BENCH_mbfs.manifest.json";
    if (!manifest.write_json_file(mpath)) {
      std::fprintf(stderr, "error: cannot write %s\n", mpath.c_str());
      return 1;
    }
    std::printf("wrote %s (run manifest)\n", mpath.c_str());
  }
  return 0;
}
