#pragma once
/// \file cost.hpp
/// \brief The paper's path-selection cost function (§3.2).
///
///   C = w1·wl + Σ_j ( w21·drg_j + w22·dup_j + w23·acf_j )
///
/// * `wl`   — wire length of the candidate path, measured in pitch units
///            so it is commensurate with the dimensionless corner terms;
/// * `drg`  — proximity of corner j to routed grid points (blocked track
///            extents): 1 / (1 + d / pitch), d = distance to nearest
///            blockage along the corner's two tracks;
/// * `dup`  — proximity of corner j to unrouted net terminals: sum of
///            (1 - manhattan / R) over terminals within radius R;
/// * `acf`  — area congestion factor: mean blocked fraction of the two
///            tracks within a window around the corner.
///
/// The paper's recommendation — w1 = 1, w21 = w22 = w23 = 1/2 for sparse
/// problems, heavier w2x for dense ones — is the default here.

#include <map>
#include <vector>

#include "geom/interval_set.hpp"
#include "geom/point.hpp"
#include "levelb/footprint.hpp"
#include "tig/grid_view.hpp"
#include "tig/track_grid.hpp"

namespace ocr::levelb {

struct CostWeights {
  double w1 = 1.0;    ///< wire length
  double w21 = 0.5;   ///< corner proximity to routed grid points
  double w22 = 0.5;   ///< corner proximity to unrouted terminals
  double w23 = 0.5;   ///< area congestion factor
  /// Extension term (§3.2: "additional terms can be included in the cost
  /// function, for example, to prevent parallel routing of sensitive
  /// nets"): penalty per pitch of running parallel to a sensitive wire on
  /// an adjacent track. 0 disables.
  double w24 = 0.0;
};

/// Registry of committed wiring that new paths should not run alongside
/// (capacitive-coupling victims, §1). Extents are keyed by track.
class SensitiveRuns {
 public:
  void add_h(int track, const geom::Interval& extent) {
    h_[track].add(extent);
  }
  void add_v(int track, const geom::Interval& extent) {
    v_[track].add(extent);
  }

  /// Total length of \p span that runs parallel to a sensitive extent on
  /// horizontal track \p track.
  geom::Coord h_overlap(int track, const geom::Interval& span) const;
  geom::Coord v_overlap(int track, const geom::Interval& span) const;

  bool empty() const { return h_.empty() && v_.empty(); }

 private:
  std::map<int, geom::IntervalSet> h_;
  std::map<int, geom::IntervalSet> v_;
};

/// Context shared by all corner evaluations of one connection.
struct CostContext {
  /// Terminals of nets not yet routed (plus remaining terminals of the
  /// current net); the dup term steers corners away from them.
  const std::vector<geom::Point>* unrouted_terminals = nullptr;
  /// Radius of the dup term, in dbu.
  geom::Coord dup_radius = 0;
  /// Half-width of the acf congestion window around a corner, in dbu.
  geom::Coord acf_window = 0;
  /// Normalization pitch (average of the grid's h/v pitches), in dbu.
  geom::Coord pitch = 1;
  /// Committed sensitive wiring for the w24 parallel-run term (optional).
  const SensitiveRuns* sensitive = nullptr;
  /// When set, every occupancy read the cost terms make is recorded here
  /// as a (track, interval) dependency. The sharded engine checks batch
  /// searches against it; serial callers leave it null.
  SearchFootprint* footprint = nullptr;
};

/// Builds a CostContext with radii derived from the grid's mean pitch.
CostContext make_cost_context(const tig::GridView& grid,
                              const std::vector<geom::Point>* unrouted,
                              double dup_radius_pitches = 8.0,
                              double acf_window_pitches = 4.0);

/// drg_j for a corner at \p p joining horizontal track \p h and vertical
/// track \p v (indices into the grid).
double corner_drg(const tig::GridView& grid, const CostContext& ctx,
                  const geom::Point& p, int h, int v);

/// dup_j for a corner at \p p.
double corner_dup(const CostContext& ctx, const geom::Point& p);

/// acf_j for a corner at \p p on tracks (h, v).
double corner_acf(const tig::GridView& grid, const CostContext& ctx,
                  const geom::Point& p, int h, int v);

/// Full corner penalty w21·drg + w22·dup + w23·acf.
double corner_cost(const tig::GridView& grid, const CostWeights& weights,
                   const CostContext& ctx, const geom::Point& p, int h,
                   int v);

/// w24 penalty of one path leg: overlap (in pitches) with sensitive runs
/// on the leg's own and adjacent tracks. Zero when ctx.sensitive is null.
double leg_parallel_cost(const tig::GridView& grid,
                         const CostWeights& weights, const CostContext& ctx,
                         const tig::TrackRef& track,
                         const geom::Interval& span);

}  // namespace ocr::levelb
