#pragma once
/// \file levelb_instance.hpp
/// \brief Deterministic synthetic level-B routing instances (grid + nets),
/// sized for the engine's scaling benchmarks.
///
/// The macro-cell generators (synthetic.hpp) exercise the full flow; this
/// module builds bare TrackGrid instances for harnesses that benchmark the
/// level-B engine in isolation (bench_mbfs, bench_scaling). The key knob
/// is *locality*: terminals of one net cluster within a window around a
/// random center, so a large die carries many geometrically independent
/// nets — the workload where the sharded engine mode's conflict-graph
/// batches get wide enough to beat one thread.

#include <cstdint>
#include <string>
#include <vector>

#include "levelb/net_core.hpp"
#include "tig/track_grid.hpp"

namespace ocr::bench_data {

/// Parameters of the generator. All randomness flows from `seed`.
struct LevelBSpec {
  std::string name = "levelb";
  std::uint64_t seed = 1;
  /// Square die edge in dbu.
  geom::Coord size = 1000;
  /// Uniform track pitches (metal3 horizontal / metal4 vertical).
  geom::Coord h_pitch = 9;
  geom::Coord v_pitch = 11;
  int num_nets = 100;
  /// Terminals land within [center - locality, center + locality] of a
  /// uniformly random per-net center. 0 disables clustering (terminals
  /// uniform over the die, the dense fully-conflicting regime).
  geom::Coord locality = 0;
  /// Net degree is uniform in [degree_min, degree_max].
  int degree_min = 2;
  int degree_max = 4;
  /// Every k-th net is marked sensitive when > 0 (0 = none).
  int sensitive_every = 0;
};

/// A pristine level-B instance: grid + nets, never mutated in place.
struct LevelBInstance {
  std::string name;
  tig::TrackGrid grid;
  std::vector<levelb::BNet> nets;
};

/// Generates the instance for \p spec. Deterministic in the spec.
LevelBInstance generate_levelb_instance(const LevelBSpec& spec);

/// `ami33`: the synthetic ami33 floorplan (synthetic.hpp) assembled with
/// 60-dbu channels; every signal net with two or more pins routes over
/// the cells on a uniform metal3/metal4 grid with the cells' obstacles
/// blocked. Its shard plan is mostly singleton batches.
LevelBInstance ami33_levelb_instance();

/// `sparse-5000`: ~1.2k local nets scattered over a 5000-dbu die — wide
/// shard batches, the parallel engine's headline scaling instance.
LevelBSpec sparse5000_spec();

/// `sparse-100k`: 100k local nets over a 200k-dbu die (~22k horizontal +
/// ~18k vertical tracks). The chunked-storage workload: a dense grid at
/// this size carries ~40k IntervalSets and gap entries per copy, while
/// the routed area touches a small fraction of them. Routes to completion
/// serially in minutes — bench_scaling gates it behind --large.
LevelBSpec sparse100k_spec();

/// `sparse-100k-ci`: the same 200k-dbu die and locality, truncated to
/// 4000 nets so CI's bench-smoke can afford a large-*grid* datapoint (the
/// storage costs scale with the die, not the net count).
LevelBSpec sparse100k_ci_spec();

}  // namespace ocr::bench_data
