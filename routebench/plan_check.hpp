#pragma once
/// \file plan_check.hpp
/// \brief An independent legality checker for level-B routing plans.
///
/// The checker recomputes everything it asserts from the routed paths and
/// the pristine grid (the grid as it was before routing), without using
/// the router's own validation helpers:
///
///  * every leg is axis-parallel and rides a track of the pristine grid,
///    namely the track the path claims for it;
///  * no leg covers a coordinate the pristine grid already blocks;
///  * no two nets share a point of a track, counting each net's snapped
///    terminal crossings as its own;
///  * the snapped terminals of every complete net lie in one connected
///    component of its wiring (union-find);
///  * wire length and corners recomputed from the paths equal the per-net
///    and total figures the result reports.
///
/// Terminal snapping is the one step taken from the router
/// (levelb::snap_and_reserve_terminals on a copy of the pristine grid):
/// the checker verifies the wiring between the snapped terminals, not
/// the snapping rule.

#include <string>
#include <vector>

#include "levelb/net_core.hpp"
#include "tig/track_grid.hpp"

namespace routebench {

/// Checks \p result, the routing of \p nets over \p pristine. Returns one
/// line per violation (empty = legal), at most \p max_reported of them.
std::vector<std::string> check_plan(const ocr::tig::TrackGrid& pristine,
                                    const std::vector<ocr::levelb::BNet>& nets,
                                    const ocr::levelb::LevelBResult& result,
                                    std::size_t max_reported = 20);

}  // namespace routebench
