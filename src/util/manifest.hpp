#pragma once
/// \file manifest.hpp
/// \brief Run manifest: one machine-readable JSON record of what a tool
/// run was — configuration, provenance (version, git revision, seed),
/// per-stage wall times, the metrics snapshot and the outcome.
///
/// Producers: `ocr_route --manifest out.json`, `bench_mbfs --json` and
/// `bench_scaling --json` (which write `*.manifest.json` next to their
/// result files). CI uploads the manifests as artifacts so any captured
/// number can be traced back to the exact configuration that produced
/// it. Schema documented in docs/OBSERVABILITY.md.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/metrics.hpp"
#include "util/profile.hpp"
#include "util/trace.hpp"

namespace ocr::util {

class RunManifest {
 public:
  /// \p tool names the producer ("ocr_route", "bench_mbfs", ...).
  explicit RunManifest(std::string tool);

  /// Configuration entries (CLI flags, resolved options). Insertion
  /// order is preserved in the output.
  void add_config(std::string key, TraceValue value);
  /// Provenance entries beyond the built-in version/git revision
  /// (instance name, seed, host notes).
  void add_provenance(std::string key, TraceValue value);
  /// Outcome entries (status string, exit code, problem counts).
  void add_outcome(std::string key, TraceValue value);

  /// Records one stage wall time explicitly (for tools that time their
  /// stages by hand rather than through the profiler).
  void add_stage_us(std::string stage, std::int64_t wall_us);
  /// Imports every depth-0 span total from \p profiler as stage times.
  void capture_stages(const Profiler& profiler);
  /// Embeds a snapshot of \p registry as the manifest's "metrics" section.
  void capture_metrics(const MetricsRegistry& registry);

  /// The manifest as one JSON object.
  std::string to_json() const;
  bool write_json_file(const std::string& path) const;

 private:
  std::string tool_;
  std::string created_; ///< ISO-8601 UTC wall-clock time of construction
  std::vector<std::pair<std::string, TraceValue>> config_;
  std::vector<std::pair<std::string, TraceValue>> provenance_;
  std::vector<std::pair<std::string, TraceValue>> outcome_;
  std::vector<std::pair<std::string, std::int64_t>> stages_us_;
  std::string metrics_json_;  ///< pre-rendered object, empty = absent
};

/// The source revision baked in at configure time (OCR_GIT_REVISION),
/// or "unknown" when the build was not configured from a git checkout.
const char* build_git_revision();
/// The project version (CMake PROJECT_VERSION), or "unknown".
const char* build_version();
/// The CMake build type (Release, RelWithDebInfo, ...), or "unknown".
const char* build_type();
/// The compiler id and version ("GNU 12.2.0"), or "unknown".
const char* build_compiler();

}  // namespace ocr::util
