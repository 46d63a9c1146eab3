#include "report/tables.hpp"

#include "util/str.hpp"
#include "util/table.hpp"

namespace ocr::report {

using util::format;
using util::TextTable;
using util::with_commas;

std::string render_table1(const std::vector<Table1Row>& rows) {
  TextTable t;
  t.set_header({"Example", "Cells", "Nets", "Pins", "Avg pins/net",
                "Level A nets", "Level A avg pins"});
  for (const Table1Row& row : rows) {
    t.add_row({row.stats.name, format("%d", row.stats.num_cells),
               format("%d", row.stats.num_nets),
               format("%d", row.stats.num_pins),
               format("%.2f", row.stats.avg_pins_per_net),
               format("%d", row.level_a.num_nets),
               format("%.2f", row.level_a.avg_pins_per_net)});
  }
  return "Table 1: Information about the layout examples\n" + t.render();
}

std::string render_table2(const std::vector<Table2Row>& rows) {
  TextTable t;
  t.set_header({"Example", "Layout Area %", "Wire Length %", "Vias %"});
  for (const Table2Row& row : rows) {
    t.add_row({row.baseline.example_name,
               format("%.1f", flow::percent_reduction(
                                  static_cast<double>(
                                      row.baseline.layout_area),
                                  static_cast<double>(
                                      row.proposed.layout_area))),
               format("%.1f", flow::percent_reduction(
                                  static_cast<double>(
                                      row.baseline.wire_length),
                                  static_cast<double>(
                                      row.proposed.wire_length))),
               format("%.1f", flow::percent_reduction(
                                  static_cast<double>(row.baseline.vias),
                                  static_cast<double>(
                                      row.proposed.vias)))});
  }
  return "Table 2: Percent reductions of the proposed 4-layer over-cell "
         "router\nover a two-layer channel router\n" +
         t.render();
}

std::string render_table3(const std::vector<Table3Row>& rows) {
  TextTable t;
  t.set_header({"Example", "4L channel (50% model)", "4L channel (real)",
                "4L over-cell", "Reduction vs model %"});
  for (const Table3Row& row : rows) {
    t.add_row(
        {row.over_cell.example_name,
         with_commas(row.fifty_percent_model.layout_area),
         with_commas(row.four_layer_channel.layout_area),
         with_commas(row.over_cell.layout_area),
         format("%.1f",
                flow::percent_reduction(
                    static_cast<double>(
                        row.fifty_percent_model.layout_area),
                    static_cast<double>(row.over_cell.layout_area)))});
  }
  return "Table 3: Layout area, 4-layer channel routing vs over-cell "
         "routing\n" +
         t.render();
}

std::string render_engine_summary(const std::vector<flow::FlowMetrics>& rows) {
  TextTable t;
  t.set_header({"Example", "Threads", "Mode", "Vertices", "Batches",
                "Committed", "Re-routed", "Wasted vtx", "B completion %"});
  for (const flow::FlowMetrics& m : rows) {
    if (m.levelb_nets == 0) continue;
    // Batch results committed as searched vs boundary escapes re-routed
    // serially (all zero on a serial run).
    t.add_row({m.example_name, format("%d", m.levelb_threads),
               m.levelb_engine_mode, with_commas(m.levelb_vertices),
               format("%lld", m.levelb_batches),
               format("%lld", m.levelb_sharded_commits),
               format("%lld", m.levelb_boundary_nets),
               with_commas(m.levelb_sharded_wasted_vertices),
               format("%.1f", 100.0 * m.levelb_completion)});
  }
  return "Engine summary: level-B routing effort and shard batches\n" +
         t.render();
}

std::string render_metrics_summary(const util::MetricsSnapshot& snapshot) {
  std::string out = "Metrics registry snapshot\n";
  {
    TextTable t;
    t.set_header({"Counter", "Total"});
    for (const auto& [name, value] : snapshot.counters) {
      t.add_row({name, with_commas(value)});
    }
    out += t.render();
  }
  {
    TextTable t;
    t.set_header({"Gauge", "Value"});
    for (const auto& [name, value] : snapshot.gauges) {
      t.add_row({name, with_commas(value)});
    }
    out += t.render();
  }
  if (!snapshot.histograms.empty()) {
    TextTable t;
    t.set_header({"Histogram", "Count", "Sum", "Buckets (<=bound:count)"});
    for (const auto& h : snapshot.histograms) {
      std::string buckets;
      for (std::size_t i = 0; i < h.counts.size(); ++i) {
        if (h.counts[i] == 0) continue;
        if (!buckets.empty()) buckets += ' ';
        buckets += i < h.bounds.size()
                       ? format("%lld:%lld", h.bounds[i], h.counts[i])
                       : format("inf:%lld", h.counts[i]);
      }
      t.add_row({h.name, with_commas(h.count), with_commas(h.sum),
                 buckets.empty() ? "-" : buckets});
    }
    out += t.render();
  }
  return out;
}

}  // namespace ocr::report
