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
///            (1 - manhattan / R) over terminals within radius R, capped
///            at 4. The other nets' terminals come from a TerminalIndex
///            built once per route (cells of side R), so a corner reads
///            only the 3×3 cells around it instead of every terminal; the
///            net's own unattached terminals are added after them;
/// * `acf`  — area congestion factor: mean blocked fraction of the two
///            tracks within a window around the corner.
///
/// The paper's recommendation — w1 = 1, w21 = w22 = w23 = 1/2 for sparse
/// problems, heavier w2x for dense ones — is the default here.

#include <cstddef>
#include <map>
#include <span>
#include <utility>
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

/// One terminal a dup query found within the radius: its flat position
/// in the index and its manhattan distance to the corner.
struct DupHit {
  std::size_t position = 0;
  geom::Coord distance = 0;
};

/// Uniform-cell index over a flat terminal list, for the dup term.
///
/// Cells are squares of side `cell` anchored at the terminals' bounding-box
/// origin. Only non-empty cells are stored, as a sorted (row, col) key
/// array with a start offset per key into the entries, which are grouped
/// by cell and position-ascending within a cell. Memory is O(terminals)
/// whatever the die size. Immutable after construction, so any number of
/// threads may query one index concurrently.
class TerminalIndex {
 public:
  TerminalIndex() = default;
  /// Indexes \p points; entry i keeps flat position i. \p cell <= 0
  /// builds an empty index (the dup term is off).
  TerminalIndex(std::span<const geom::Point> points, geom::Coord cell);

  geom::Coord cell() const { return cell_; }

  /// Appends to \p hits every terminal at position >= \p from whose
  /// manhattan distance to \p p is below \p radius (<= cell()), in
  /// no particular order. manhattan < radius implies |dx|, |dy| < cell,
  /// so the 3×3 cells around p's cell hold every hit.
  void collect(const geom::Point& p, geom::Coord radius, std::size_t from,
               std::vector<DupHit>& hits) const;

 private:
  struct Entry {
    geom::Point point;
    std::size_t position = 0;
  };

  geom::Coord cell_ = 0;
  geom::Point origin_;
  std::vector<std::pair<geom::Coord, geom::Coord>> keys_;  ///< (row, col)
  std::vector<std::size_t> starts_;  ///< keys_.size() + 1 entry offsets
  std::vector<Entry> entries_;
};

/// Context shared by all corner evaluations of one connection.
struct CostContext {
  /// Terminals of the nets routed after this one, or null. The dup term
  /// steers corners away from them and from `dup_own`.
  const TerminalIndex* dup_index = nullptr;
  /// First flat position of `dup_index` the dup term counts; earlier
  /// entries belong to nets already routed and to the current one.
  std::size_t dup_from = 0;
  /// The current net's still-unattached terminals, summed after the
  /// index hits.
  std::span<const geom::Point> dup_own;
  /// Caller-owned hit scratch (SearchWorkspace::dup_hits); required when
  /// `dup_index` is set.
  std::vector<DupHit>* dup_hits = nullptr;
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

/// Builds a CostContext with radii derived from the grid's mean pitch and
/// no dup terminals; route_single_net fills the dup fields.
CostContext make_cost_context(const tig::GridView& grid,
                              double dup_radius_pitches = 8.0,
                              double acf_window_pitches = 4.0);

/// drg_j for a corner at \p p joining horizontal track \p h and vertical
/// track \p v (indices into the grid).
double corner_drg(const tig::GridView& grid, const CostContext& ctx,
                  const geom::Point& p, int h, int v);

/// dup_j for a corner at \p p: the index hits summed in position order,
/// then `dup_own` in its order — the order of one flat list of the later
/// nets' terminals followed by the own ones, so the sum is the same double
/// a scan of that list would give.
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
