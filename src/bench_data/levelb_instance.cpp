#include "bench_data/levelb_instance.hpp"

#include <algorithm>

#include "bench_data/synthetic.hpp"
#include "util/rng.hpp"

namespace ocr::bench_data {

using geom::Coord;
using geom::Point;

LevelBInstance generate_levelb_instance(const LevelBSpec& spec) {
  util::Rng rng(spec.seed);
  LevelBInstance inst{
      spec.name,
      tig::TrackGrid::uniform(geom::Rect(0, 0, spec.size, spec.size),
                              spec.h_pitch, spec.v_pitch),
      {}};
  for (int n = 0; n < spec.num_nets; ++n) {
    levelb::BNet net{n, {}, false};
    const Point center{rng.uniform_int(0, spec.size - 1),
                       rng.uniform_int(0, spec.size - 1)};
    const int degree = static_cast<int>(
        rng.uniform_int(spec.degree_min, spec.degree_max));
    for (int t = 0; t < degree; ++t) {
      Point p;
      if (spec.locality > 0) {
        p.x = std::clamp<Coord>(
            center.x + rng.uniform_int(0, 2 * spec.locality) - spec.locality,
            0, spec.size - 1);
        p.y = std::clamp<Coord>(
            center.y + rng.uniform_int(0, 2 * spec.locality) - spec.locality,
            0, spec.size - 1);
      } else {
        p = Point{rng.uniform_int(0, spec.size - 1),
                  rng.uniform_int(0, spec.size - 1)};
      }
      net.terminals.push_back(p);
    }
    net.sensitive = spec.sensitive_every > 0 &&
                    n % spec.sensitive_every == spec.sensitive_every / 2;
    inst.nets.push_back(std::move(net));
  }
  return inst;
}

LevelBInstance ami33_levelb_instance() {
  const floorplan::MacroLayout ml = generate_macro_layout(ami33_spec());
  const std::vector<geom::Coord> heights(
      static_cast<std::size_t>(ml.num_channels()), 60);
  const netlist::Layout layout = ml.assemble(heights);
  const geom::DesignRules& rules = layout.rules();
  LevelBInstance inst{"ami33",
                      tig::TrackGrid::uniform(
                          layout.die(),
                          rules.rule(geom::Layer::kMetal3).pitch(),
                          rules.rule(geom::Layer::kMetal4).pitch()),
                      {}};
  for (const netlist::Obstacle& ob : layout.obstacles()) {
    if (ob.blocks_metal3) inst.grid.block_region_h(ob.region);
    if (ob.blocks_metal4) inst.grid.block_region_v(ob.region);
  }
  for (std::size_t n = 0; n < layout.nets().size(); ++n) {
    if (layout.nets()[n].net_class != netlist::NetClass::kSignal) continue;
    auto pins = layout.net_pin_positions(
        netlist::NetId(static_cast<std::uint32_t>(n)));
    if (pins.size() < 2) continue;
    inst.nets.push_back(
        levelb::BNet{static_cast<int>(n), std::move(pins), false});
  }
  return inst;
}

LevelBSpec sparse5000_spec() {
  LevelBSpec spec;
  spec.name = "sparse-5000";
  spec.seed = 17;
  spec.size = 5000;
  spec.num_nets = 1200;
  spec.locality = 150;
  return spec;
}

LevelBSpec sparse100k_spec() {
  LevelBSpec spec;
  spec.name = "sparse-100k";
  spec.seed = 23;
  spec.size = 200000;
  spec.num_nets = 100000;
  spec.locality = 150;
  return spec;
}

LevelBSpec sparse100k_ci_spec() {
  LevelBSpec spec = sparse100k_spec();
  spec.name = "sparse-100k-ci";
  spec.num_nets = 4000;
  return spec;
}

}  // namespace ocr::bench_data
