/// \file bench_fig1.cpp
/// \brief Reproduces the paper's Figure 1 (a level-B instance and its
/// Track Intersection Graph) and Figure 2 (the two Path Selection Trees
/// for net B), and writes `fig1_instance.svg`.

#include <cstdio>

#include "levelb/figure1.hpp"
#include "levelb/path_finder.hpp"
#include "tig/graph.hpp"
#include "viz/svg.hpp"

int main() {
  using namespace ocr;
  const levelb::Figure1Instance fig = levelb::make_figure1_instance();

  std::puts("Figure 1: level-B instance (4 horizontal x 6 vertical tracks)");
  std::puts("Committed wiring: net A on h4 in [12,18]; net C on v6 in");
  std::puts("[25,35]; obstacle O1 on v4 in [15,25].");
  std::puts("\nTrack Intersection Graph (usable crossings per track):");
  std::fputs(tig::build_tig(fig.grid).to_string().c_str(), stdout);

  levelb::PathFinder::Options options;
  options.keep_trees = true;
  const levelb::PathFinder finder(fig.grid, options);
  const auto ctx = levelb::make_cost_context(fig.grid);
  const auto result = finder.connect(fig.b1, fig.b2, ctx);

  std::puts("\nFigure 2: Path Selection Trees for net B");
  std::puts("MBFS rooted at v2 (vertical track of terminal B1):");
  std::fputs(result.tree_v.to_string().c_str(), stdout);
  std::puts("MBFS rooted at h2 (horizontal track of terminal B1):");
  std::fputs(result.tree_h.to_string().c_str(), stdout);

  if (result.found) {
    std::printf("\nSelected path (%d corner%s): %s\n", result.corners,
                result.corners == 1 ? "" : "s",
                result.path.to_string().c_str());
    std::printf("Candidates with minimum corners: %d\n",
                result.stats.candidates);
    std::puts("Paper: three candidate paths; (v2,h4,v6) wins with one "
              "corner.");
  } else {
    std::puts("\nERROR: no path found — instance diverges from the paper");
    return 1;
  }

  // Render the instance.
  viz::SvgCanvas canvas(fig.grid.extent(), 10.0);
  for (int i = 0; i < fig.grid.num_h(); ++i) {
    canvas.line({fig.grid.extent().xlo, fig.grid.h_y(i)},
                {fig.grid.extent().xhi, fig.grid.h_y(i)}, "#cccccc", 1.0);
  }
  for (int j = 0; j < fig.grid.num_v(); ++j) {
    canvas.line({fig.grid.v_x(j), fig.grid.extent().ylo},
                {fig.grid.v_x(j), fig.grid.extent().yhi}, "#cccccc", 1.0);
  }
  canvas.line({12, 40}, {18, 40}, "#3060c0", 4.0);  // net A
  canvas.line({60, 25}, {60, 35}, "#2f8f4e", 4.0);  // net C
  canvas.rect(geom::Rect(37, 15, 43, 25), "#f2b0b0", "#a04040", 1.0, 0.8);
  canvas.path(result.path, "#c03030", 3.0);
  canvas.circle(fig.b1, 4.0, "#c03030");
  canvas.circle(fig.b2, 4.0, "#c03030");
  canvas.text({fig.b1.x + 2, fig.b1.y - 4}, "B1", 9.0);
  canvas.text({fig.b2.x + 2, fig.b2.y - 4}, "B2", 9.0);
  const std::string path = "fig1_instance.svg";
  if (viz::write_file(path, canvas.finish())) {
    std::printf("Wrote %s\n", path.c_str());
  }
  return 0;
}
