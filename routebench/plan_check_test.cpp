// Shows that the plan checker accepts a real routing plan and rejects
// each kind of corruption it claims to detect. Exit code 0 = all cases
// behaved; prints one line per case.
//
//   plan_check_test

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_data/levelb_instance.hpp"
#include "engine/engine.hpp"
#include "plan_check.hpp"

namespace {

using namespace ocr;

/// First net with a path of at least two legs (a corner to play with).
levelb::NetResult* net_with_corner(levelb::LevelBResult& r) {
  for (levelb::NetResult& n : r.nets) {
    for (const levelb::Path& p : n.paths) {
      if (p.points.size() >= 3) return &n;
    }
  }
  return nullptr;
}

}  // namespace

int main() {
  bench_data::LevelBSpec spec = bench_data::sparse5000_spec();
  spec.num_nets = 300;
  const bench_data::LevelBInstance inst =
      bench_data::generate_levelb_instance(spec);
  tig::TrackGrid grid = inst.grid;
  const levelb::LevelBResult routed =
      engine::RoutingEngine(grid, engine::EngineOptions{}).route(inst.nets);

  int failures = 0;
  auto expect = [&](const std::string& name, bool want_clean,
                    const tig::TrackGrid& pristine,
                    const levelb::LevelBResult& plan) {
    const std::vector<std::string> v =
        routebench::check_plan(pristine, inst.nets, plan);
    const bool ok = v.empty() == want_clean;
    if (!ok) ++failures;
    std::printf("%-4s %s: %zu violation(s)%s%s\n", ok ? "ok" : "FAIL",
                name.c_str(), v.size(), v.empty() ? "" : ", first: ",
                v.empty() ? "" : v[0].c_str());
  };
  auto corrupt = [&](const std::string& name,
                     const std::function<void(levelb::LevelBResult&)>& edit) {
    levelb::LevelBResult plan = routed;
    edit(plan);
    expect(name, false, inst.grid, plan);
  };

  expect("routed plan is clean", true, inst.grid, routed);

  corrupt("leg off the tracks", [](levelb::LevelBResult& r) {
    levelb::Path& p = net_with_corner(r)->paths[0];
    for (geom::Point& q : p.points) q.x += 1, q.y += 1;
  });
  corrupt("diagonal leg", [](levelb::LevelBResult& r) {
    levelb::Path& p = net_with_corner(r)->paths[0];
    p.points[1].x += 11;
    p.points[1].y += 9;
  });
  corrupt("wrong reported length", [](levelb::LevelBResult& r) {
    r.nets[0].wire_length += 1;
  });
  corrupt("wrong reported total corners",
          [](levelb::LevelBResult& r) { r.total_corners += 1; });
  corrupt("disconnected net", [](levelb::LevelBResult& r) {
    levelb::NetResult* n = net_with_corner(r);
    const long long len = n->paths.back().length();
    const int corners = n->paths.back().corners();
    n->paths.pop_back();
    n->wire_length -= len;
    n->corners -= corners;
    r.total_wire_length -= len;
    r.total_corners -= corners;
  });
  corrupt("two nets share a track", [](levelb::LevelBResult& r) {
    // Give the first routed net a copy of another net's wiring.
    levelb::NetResult* victim = net_with_corner(r);
    levelb::NetResult& thief = victim == &r.nets[0] ? r.nets[1] : r.nets[0];
    thief.paths.push_back(victim->paths[0]);
    thief.wire_length += victim->paths[0].length();
    thief.corners += victim->paths[0].corners();
    r.total_wire_length += victim->paths[0].length();
    r.total_corners += victim->paths[0].corners();
  });
  {
    // An obstacle in the pristine grid right under a routed leg.
    tig::TrackGrid blocked = inst.grid;
    const levelb::Path& p = net_with_corner(const_cast<levelb::LevelBResult&>(
                                                routed))
                                ->paths[0];
    const geom::Point a = p.points[0], b = p.points[1];
    if (p.tracks[0].orient == geom::Orientation::kHorizontal) {
      blocked.block_h(p.tracks[0].index, geom::Interval((a.x + b.x) / 2,
                                                        (a.x + b.x) / 2));
    } else {
      blocked.block_v(p.tracks[0].index, geom::Interval((a.y + b.y) / 2,
                                                        (a.y + b.y) / 2));
    }
    expect("leg crosses a pristine obstacle", false, blocked, routed);
  }
  std::printf("%s\n", failures == 0 ? "plan_check_test: all cases passed"
                                    : "plan_check_test: FAILED");
  return failures == 0 ? 0 : 1;
}
