#pragma once
/// \file engine.hpp
/// \brief RoutingEngine: the level-B router, optionally spread over
/// worker threads, with results bit-identical to the serial router.
///
/// With threads == 1 the engine IS the serial LevelBRouter. With N > 1
/// worker threads it runs the sharded dispatch: a geometry pre-pass
/// (partition.hpp) groups consecutive ordering positions whose search
/// regions are disjoint into batches, each batch is searched in parallel
/// against the live grid at batch start, and results commit in strict
/// ordering sequence. A net whose reads escaped its declared region is
/// re-routed serially on the exact serial prefix. See DESIGN.md "Engine
/// architecture" for the argument.

#include <string>
#include <vector>

#include "levelb/net_core.hpp"
#include "tig/track_grid.hpp"
#include "util/status.hpp"

namespace ocr::engine {

/// Parallel dispatch for threads > 1 (1 thread is always the serial
/// router).
///
/// * kSharded — batches of geometrically disjoint nets searched in
///   parallel; region escapes are re-routed serially (boundary nets).
/// * kAuto — plans the shard schedule, then runs sharded when the plan's
///   mean batch reaches kAutoMinMeanBatch and the serial router otherwise.
///
/// Both are bit-identical to the serial router at any thread count.
enum class EngineMode { kSharded, kAuto };

/// Auto mode runs sharded when the plan's mean batch reaches this. Below
/// it, most batches are singletons: the workers would idle while the
/// plan and the per-batch barriers still cost time.
inline constexpr double kAutoMinMeanBatch = 2.0;

/// "sharded" / "auto".
const char* engine_mode_name(EngineMode mode);
/// Parses a mode name. Anything but "sharded" or "auto" is an
/// invalid-argument Status (stage "engine") naming the valid values.
util::StatusOr<EngineMode> parse_engine_mode(const std::string& name);

struct EngineOptions {
  levelb::LevelBOptions levelb;
  /// Worker thread count. 1 = the serial router; <= 0 = one per hardware
  /// thread.
  int threads = 1;
  /// Parallel dispatch strategy (see EngineMode).
  EngineMode mode = EngineMode::kSharded;
  /// Sharded planning: declared-region inflation in routing pitches
  /// (partition.hpp). Tunes the escape rate, never correctness.
  int shard_halo_pitches = 16;
};

/// Counters from the last route() call. A serial run (one thread, or
/// auto below kAutoMinMeanBatch) leaves the batch counters at zero.
struct EngineStats {
  int threads = 1;
  /// The dispatch that actually ran: "serial" or "sharded" (auto resolves
  /// to one of the two).
  const char* mode = "serial";
  /// Mean batch length of the shard plan (0 when no plan was made, i.e.
  /// at one thread). Auto mode compares it with kAutoMinMeanBatch.
  double plan_mean_batch = 0.0;
  long long batches = 0;          ///< shard batches dispatched
  long long max_batch_size = 0;   ///< widest batch (parallelism ceiling)
  long long sharded_commits = 0;  ///< batch results committed untouched
  long long boundary_nets = 0;    ///< reads escaped the declared region;
                                  ///  re-routed serially on the prefix
  long long sharded_wasted_vertices = 0;   ///< discarded escape searches
  long long sharded_wasted_search_us = 0;  ///< time of those searches
  // Robustness counters (degradation ladder; see DESIGN.md "Failure
  // model"). All zero on a fault-free run.
  long long fault_reroutes = 0;   ///< rung 1: commit faults re-routed
                                  ///  serially on the live grid
  long long fault_drops = 0;      ///< rung 3: apply faults; net dropped
                                  ///  and marked unrouted
  long long worker_failures = 0;  ///< batch positions a worker left
                                  ///  unrouted, recovered serially
  long long pool_task_failures = 0;  ///< worker tasks that threw
  int ripup_recovered = 0;        ///< rung 2: nets rescued by rip-up
};

class RoutingEngine {
 public:
  /// Routes over \p grid, which must outlive the engine and carries the
  /// committed wiring after route() returns (same contract as
  /// LevelBRouter).
  RoutingEngine(tig::TrackGrid& grid, EngineOptions options);

  /// Routes all nets. Safe to call once per engine instance per grid
  /// state; the result is bit-identical to
  /// LevelBRouter(grid, options.levelb).route(nets) for any thread count.
  levelb::LevelBResult route(const std::vector<levelb::BNet>& nets);

  const EngineStats& stats() const { return stats_; }

  /// The thread count a configured value resolves to (handles <= 0).
  static int resolve_threads(int requested);

 private:
  /// The parallel prologue — ordering, snapped terminal reservations,
  /// dup-term terminal index, shard plan (defined in engine.cpp). Built
  /// once per route() so auto mode can plan before either dispatch runs
  /// (terminal reservation mutates the grid and must happen exactly
  /// once).
  struct Prepared;

  levelb::LevelBResult route_sharded(const std::vector<levelb::BNet>& nets,
                                     const Prepared& prep, int threads);

  tig::TrackGrid& grid_;
  EngineOptions options_;
  EngineStats stats_;
};

}  // namespace ocr::engine
