#pragma once
/// \file trace.hpp
/// \brief Structured per-event tracing emitted as JSON.
///
/// The routing engine records one event per net (search effort, window
/// growths, batch and escape fields) so scaling studies can see
/// *where* wall-clock goes, not just how much. A TraceSink is thread-safe:
/// worker threads record concurrently and the owner serializes the event
/// log to a JSON array afterwards. Tracing is opt-in — code paths hold a
/// `TraceSink*` and skip all event construction when it is null, keeping
/// the disabled overhead to a pointer test.

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ocr::util {

class Profiler;

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters).
std::string json_escape(const std::string& s);

/// One JSON-serializable scalar.
class TraceValue {
 public:
  TraceValue(bool v) : kind_(Kind::kBool), int_(v ? 1 : 0) {}
  TraceValue(int v) : kind_(Kind::kInt), int_(v) {}
  TraceValue(long v) : kind_(Kind::kInt), int_(v) {}
  TraceValue(long long v) : kind_(Kind::kInt), int_(v) {}
  TraceValue(unsigned long long v)
      : kind_(Kind::kInt), int_(static_cast<long long>(v)) {}
  TraceValue(double v) : kind_(Kind::kDouble), double_(v) {}
  TraceValue(std::string v) : kind_(Kind::kString), str_(std::move(v)) {}
  TraceValue(const char* v) : kind_(Kind::kString), str_(v) {}

  /// Renders the value as a JSON token.
  std::string to_json() const;

 private:
  enum class Kind { kBool, kInt, kDouble, kString };
  Kind kind_;
  long long int_ = 0;
  double double_ = 0.0;
  std::string str_;
};

/// One trace record: a kind tag plus ordered key/value fields.
struct TraceEvent {
  std::string kind;
  std::vector<std::pair<std::string, TraceValue>> fields;

  TraceEvent() = default;
  explicit TraceEvent(std::string kind_in) : kind(std::move(kind_in)) {}

  TraceEvent& add(std::string key, TraceValue value) {
    fields.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  /// `{"kind":"...","key":value,...}`.
  std::string to_json() const;
};

/// Thread-safe collector of trace events.
class TraceSink {
 public:
  void record(TraceEvent event);

  /// Mirrors every recorded event into \p profiler as an instant event
  /// named after the event kind (null detaches). Spans and trace events
  /// then share one timeline in the Chrome-trace export, so `--trace`
  /// and `--profile` feed a single observability pipeline.
  void set_mirror(Profiler* profiler);

  std::size_t size() const;
  /// Snapshot of the events recorded so far.
  std::vector<TraceEvent> events() const;

  /// Renders all events as a JSON array (one event per line).
  std::string to_json() const;

  /// Writes to_json() to \p path; returns false on I/O failure.
  bool write_json_file(const std::string& path) const;

  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  Profiler* mirror_ = nullptr;
};

}  // namespace ocr::util
