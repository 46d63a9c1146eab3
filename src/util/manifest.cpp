#include "util/manifest.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>

namespace ocr::util {
namespace {

std::string iso8601_utc_now() {
  const std::time_t now = std::chrono::system_clock::to_time_t(
      std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string render_section(
    const std::vector<std::pair<std::string, TraceValue>>& entries) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : entries) {
    if (!first) out += ",";
    first = false;
    out += "\n    \"" + json_escape(key) + "\": " + value.to_json();
  }
  out += first ? "}" : "\n  }";
  return out;
}

}  // namespace

const char* build_git_revision() {
#ifdef OCR_GIT_REVISION
  return OCR_GIT_REVISION;
#else
  return "unknown";
#endif
}

const char* build_version() {
#ifdef OCR_VERSION
  return OCR_VERSION;
#else
  return "unknown";
#endif
}

const char* build_type() {
#ifdef OCR_BUILD_TYPE
  return OCR_BUILD_TYPE;
#else
  return "unknown";
#endif
}

const char* build_compiler() {
#ifdef OCR_COMPILER
  return OCR_COMPILER;
#else
  return "unknown";
#endif
}

RunManifest::RunManifest(std::string tool)
    : tool_(std::move(tool)), created_(iso8601_utc_now()) {}

void RunManifest::add_config(std::string key, TraceValue value) {
  config_.emplace_back(std::move(key), std::move(value));
}

void RunManifest::add_provenance(std::string key, TraceValue value) {
  provenance_.emplace_back(std::move(key), std::move(value));
}

void RunManifest::add_outcome(std::string key, TraceValue value) {
  outcome_.emplace_back(std::move(key), std::move(value));
}

void RunManifest::add_stage_us(std::string stage, std::int64_t wall_us) {
  stages_us_.emplace_back(std::move(stage), wall_us);
}

void RunManifest::capture_stages(const Profiler& profiler) {
  for (auto& [name, us] : profiler.stage_totals()) {
    stages_us_.emplace_back(name, us);
  }
}

void RunManifest::capture_metrics(const MetricsRegistry& registry) {
  metrics_json_ = registry.snapshot().to_json();
  // Snapshot JSON ends with a newline for file use; trim for embedding.
  while (!metrics_json_.empty() && metrics_json_.back() == '\n') {
    metrics_json_.pop_back();
  }
}

std::string RunManifest::to_json() const {
  std::string out = "{\n  \"tool\": \"" + json_escape(tool_) + "\",\n";
  out += "  \"created\": \"" + json_escape(created_) + "\",\n";
  out += "  \"provenance\": {";
  out += "\n    \"version\": \"" + json_escape(build_version()) + "\",";
  out += "\n    \"git_revision\": \"" + json_escape(build_git_revision()) +
         "\"";
  for (const auto& [key, value] : provenance_) {
    out += ",\n    \"" + json_escape(key) + "\": " + value.to_json();
  }
  out += "\n  },\n";
  out += "  \"config\": " + render_section(config_) + ",\n";
  out += "  \"outcome\": " + render_section(outcome_) + ",\n";
  out += "  \"stages_us\": {";
  bool first = true;
  for (const auto& [stage, us] : stages_us_) {
    if (!first) out += ",";
    first = false;
    out += "\n    \"" + json_escape(stage) + "\": " + std::to_string(us);
  }
  out += first ? "}" : "\n  }";
  if (!metrics_json_.empty()) {
    out += ",\n  \"metrics\": " + metrics_json_;
  }
  out += "\n}\n";
  return out;
}

bool RunManifest::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

}  // namespace ocr::util
