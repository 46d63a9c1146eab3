#pragma once
/// \file router.hpp
/// \brief The level-B over-cell router: serial net processing over the
/// whole layout area (paper §3).
///
/// Nets are routed one at a time in longest-distance-first order (§3,
/// user-overridable). Two-terminal nets are a single path search;
/// multi-terminal nets follow the §3.3 modified-Prim scheme: repeatedly
/// attach the terminal closest to the net's already-routed geometry,
/// connecting it to the nearest point of that geometry (terminals and
/// Steiner attachment points alike). A net's own wire never blocks its own
/// later connections (same electrical node); the completed net's extents
/// are committed to the grid before the next net starts, which is the
/// paper's O(t) per-connection array update.
///
/// The per-net search and commit machinery lives in net_core.hpp (shared
/// with the parallel engine in src/engine/, which must reproduce this
/// router's results bit-for-bit for a fixed ordering).

#include <cstddef>
#include <vector>

#include "levelb/net_core.hpp"
#include "tig/track_grid.hpp"

namespace ocr::levelb {

/// Serial level-B router over a TrackGrid.
class LevelBRouter {
 public:
  /// \p grid must outlive the router; committed nets block its tracks.
  LevelBRouter(tig::TrackGrid& grid, LevelBOptions options = {});

  /// Routes \p nets (order adjusted per options). Nets with < 2 distinct
  /// snapped terminals are trivially complete.
  LevelBResult route(const std::vector<BNet>& nets);

  /// The same route, for a caller that already ordered the nets and ran
  /// snap_and_reserve_terminals(grid, nets) itself (\p snapped is its
  /// result, parallel to \p nets). The parallel engine's auto mode plans
  /// on those terminals before it decides to route serially.
  LevelBResult route_reserved(
      const std::vector<BNet>& nets, const std::vector<std::size_t>& order,
      const std::vector<std::vector<geom::Point>>& snapped);

 private:
  tig::TrackGrid& grid_;
  LevelBOptions options_;
};

}  // namespace ocr::levelb
