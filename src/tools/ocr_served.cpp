/// \file ocr_served.cpp
/// \brief The routing-service daemon: JSONL jobs in, JSONL results out.
///
/// Examples:
///   ocr_served < jobs.jsonl > results.jsonl       # batch over stdin
///   ocr_served --workers 4 --queue-limit 8
///   ocr_served --journal wal.jsonl --recover      # crash-safe serving
///   ocr_served --socket /tmp/ocr.sock             # serve connections
///
/// Every input line is one job request (io/job_io.hpp schema); every
/// line written back is one result. Responses are emitted as jobs
/// complete, so they may arrive out of submission order — correlate by
/// `id`. Every request produces exactly one response: malformed lines
/// and admission rejections answer immediately with exit_class 2, job
/// failures with exit_class 1. On EOF the daemon drains every accepted
/// job, then exits 0.
///
/// With `--journal PATH` every job-state transition is written ahead to
/// an append-only JSONL log; `--recover` replays it on startup —
/// re-running unfinished jobs, re-emitting responses whose delivery was
/// not recorded (flagged `"replayed":true`), and deduplicating resent
/// ids that already completed. SIGTERM/SIGINT switch to drain mode:
/// stop admitting, finish in-flight work within `--drain-deadline-ms`
/// (abandoned jobs stay journaled for the next `--recover`), and exit 0
/// on a clean drain. See docs/SERVICE.md for the full failure model.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "io/job_io.hpp"
#include "service/executor.hpp"
#include "service/job.hpp"
#include "service/journal.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/manifest.hpp"
#include "util/metrics.hpp"
#include "util/str.hpp"

namespace {

using namespace ocr;

void usage() {
  std::puts(
      "usage: ocr_served [--workers N] [--queue-limit N]\n"
      "                  [--max-nets N] [--reject-congestion X]\n"
      "                  [--downtier-congestion X]\n"
      "                  [--downtier-net-effort N]\n"
      "                  [--journal FILE] [--recover]\n"
      "                  [--drain-deadline-ms N]\n"
      "                  [--retry-max N] [--retry-base-ms N]\n"
      "                  [--retry-seed N] [--hang-ms N]\n"
      "                  [--service-faults SPEC] [--manifest FILE]\n"
      "                  [--socket PATH] [--metrics-json FILE] [--verbose]\n"
      "\n"
      "Routing-as-a-service daemon. Reads one JSON job request per line\n"
      "from stdin (or from connections on --socket PATH) and writes one\n"
      "JSON result per line to stdout (or back on the connection) as\n"
      "jobs complete. Results can arrive out of submission order;\n"
      "correlate by the request's \"id\". Request/response schemas are\n"
      "documented in docs/SERVICE.md.\n"
      "\n"
      "--workers N runs N jobs concurrently (default 1). --queue-limit N\n"
      "bounds the pending-job queue (default 16): submissions beyond the\n"
      "bound are rejected immediately (exit_class 2) unless retries are\n"
      "enabled. --max-nets / --reject-congestion reject oversized or\n"
      "hopeless instances before routing; --downtier-congestion admits\n"
      "congested instances with the per-net effort capped at\n"
      "--downtier-net-effort. On stdin EOF the daemon finishes every\n"
      "accepted job and exits 0.\n"
      "\n"
      "Crash safety (stdin mode): --journal FILE write-ahead-logs every\n"
      "job transition; --recover replays it on startup (exactly-once per\n"
      "id). --retry-max N re-runs transiently failed jobs up to N total\n"
      "attempts with exponential backoff from --retry-base-ms (jittered\n"
      "deterministically from --retry-seed). --hang-ms N supervises\n"
      "workers: a frozen job is cancelled and retried. SIGTERM/SIGINT\n"
      "drain within --drain-deadline-ms (default 5000). --service-faults\n"
      "arms service-layer chaos sites (also: OCR_SERVICE_FAULTS env).");
}

struct Args {
  int workers = 1;
  std::size_t queue_limit = 16;
  int max_nets = 0;
  double reject_congestion = 0.0;
  double downtier_congestion = 0.0;
  long long downtier_net_effort = 100000;
  std::string journal_path;
  bool recover = false;
  long long drain_deadline_ms = 5000;
  int retry_max = 1;
  long long retry_base_ms = 10;
  long long retry_seed = 1;
  long long hang_ms = 0;
  std::string service_faults;
  std::string manifest_path;
  std::string socket_path;
  std::string metrics_json;
  bool verbose = false;
};

/// Upper bounds of the numeric flags that size something: far past any
/// sensible setting, low enough that a typo cannot ask for a huge pool.
constexpr long long kMaxWorkers = 256;
constexpr long long kMaxRetries = 1000;
constexpr double kMaxCongestion = 1e9;

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    // The flag's value as a number in [lo, hi]; a missing, malformed or
    // out-of-range value is a usage error.
    const auto report = [&](const util::Status& status) {
      std::fprintf(stderr, "%s: %s\n", arg.c_str(),
                   status.message().c_str());
    };
    const auto int_value = [&](long long lo,
                               long long hi) -> std::optional<long long> {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      const util::StatusOr<long long> parsed = util::parse_int(v, lo, hi);
      if (!parsed.ok()) {
        report(parsed.status());
        return std::nullopt;
      }
      return *parsed;
    };
    const auto double_value = [&](double lo,
                                  double hi) -> std::optional<double> {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      const util::StatusOr<double> parsed = util::parse_double(v, lo, hi);
      if (!parsed.ok()) {
        report(parsed.status());
        return std::nullopt;
      }
      return *parsed;
    };
    if (arg == "--workers") {
      const auto v = int_value(1, kMaxWorkers);
      if (!v) return std::nullopt;
      args.workers = static_cast<int>(*v);
    } else if (arg == "--queue-limit") {
      const auto v = int_value(1, std::numeric_limits<long long>::max());
      if (!v) return std::nullopt;
      args.queue_limit = static_cast<std::size_t>(*v);
    } else if (arg == "--max-nets") {
      const auto v = int_value(0, std::numeric_limits<int>::max());
      if (!v) return std::nullopt;
      args.max_nets = static_cast<int>(*v);
    } else if (arg == "--reject-congestion") {
      const auto v = double_value(0.0, kMaxCongestion);
      if (!v) return std::nullopt;
      args.reject_congestion = *v;
    } else if (arg == "--downtier-congestion") {
      const auto v = double_value(0.0, kMaxCongestion);
      if (!v) return std::nullopt;
      args.downtier_congestion = *v;
    } else if (arg == "--downtier-net-effort") {
      const auto v = int_value(0, std::numeric_limits<long long>::max());
      if (!v) return std::nullopt;
      args.downtier_net_effort = *v;
    } else if (arg == "--journal") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.journal_path = v;
    } else if (arg == "--recover") {
      args.recover = true;
    } else if (arg == "--drain-deadline-ms") {
      const auto v = int_value(0, std::numeric_limits<long long>::max());
      if (!v) return std::nullopt;
      args.drain_deadline_ms = *v;
    } else if (arg == "--retry-max") {
      const auto v = int_value(1, kMaxRetries);
      if (!v) return std::nullopt;
      args.retry_max = static_cast<int>(*v);
    } else if (arg == "--retry-base-ms") {
      const auto v = int_value(0, std::numeric_limits<long long>::max());
      if (!v) return std::nullopt;
      args.retry_base_ms = *v;
    } else if (arg == "--retry-seed") {
      const auto v = int_value(std::numeric_limits<long long>::min(),
                               std::numeric_limits<long long>::max());
      if (!v) return std::nullopt;
      args.retry_seed = *v;
    } else if (arg == "--hang-ms") {
      const auto v = int_value(0, std::numeric_limits<long long>::max());
      if (!v) return std::nullopt;
      args.hang_ms = *v;
    } else if (arg == "--service-faults") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.service_faults = v;
    } else if (arg == "--manifest") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.manifest_path = v;
    } else if (arg == "--socket") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.socket_path = v;
    } else if (arg == "--metrics-json") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      args.metrics_json = v;
    } else if (arg == "--verbose") {
      args.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      return std::nullopt;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return std::nullopt;
    }
  }
  if (!args.journal_path.empty() && !args.socket_path.empty()) {
    std::fputs("--journal requires stdin mode (no --socket)\n", stderr);
    return std::nullopt;
  }
  if (args.recover && args.journal_path.empty()) {
    std::fputs("--recover requires --journal\n", stderr);
    return std::nullopt;
  }
  return args;
}

service::JobExecutor::Options executor_options(const Args& args,
                                               service::Journal* journal) {
  service::JobExecutor::Options options;
  options.workers = args.workers;
  options.admission.queue_limit = args.queue_limit;
  options.admission.max_nets = args.max_nets;
  options.admission.reject_congestion = args.reject_congestion;
  options.admission.downtier_congestion = args.downtier_congestion;
  options.admission.downtier_net_effort = args.downtier_net_effort;
  options.retry.max_attempts = args.retry_max;
  options.retry.base_ms = args.retry_base_ms;
  options.retry.seed = static_cast<std::uint64_t>(args.retry_seed);
  options.journal = journal;
  options.hang_ms = args.hang_ms;
  return options;
}

io::JobResponse error_response(const std::string& id, const char* status,
                               int exit_class, const std::string& error) {
  io::JobResponse response;
  response.id = id;
  response.status = status;
  response.exit_class = exit_class;
  response.error = error;
  return response;
}

/// Serializes response lines from worker threads onto one output.
class ResponseWriter {
 public:
  virtual ~ResponseWriter() = default;
  void write(const io::JobResponse& response) {
    const std::string line = io::render_job_response(response);
    const std::lock_guard<std::mutex> lock(mu_);
    write_line(line);
    ++written_;
  }
  long long written() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return written_;
  }

 private:
  /// Called with mu_ held.
  virtual void write_line(const std::string& line) = 0;

  mutable std::mutex mu_;
  long long written_ = 0;
};

class StdoutWriter : public ResponseWriter {
 private:
  void write_line(const std::string& line) override {
    std::fputs(line.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }
};

class FdWriter : public ResponseWriter {
 public:
  explicit FdWriter(int fd) : fd_(fd) {}

 private:
  void write_line(const std::string& line) override {
    if (OCR_SERVICE_FAULT("service.socket.drop")) {
      // Chaos site: the connection died between completion and delivery.
      OCR_WARN() << "ocr_served: injected socket drop, response lost";
      return;
    }
    std::string out = line;
    out.push_back('\n');
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(fd_, out.data() + off, out.size() - off);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        OCR_WARN() << "ocr_served: dropped response for a closed connection";
        return;
      }
      off += static_cast<std::size_t>(n);
    }
  }

  int fd_;
};

/// Shared serving state: the executor, the output, the journal, and the
/// per-id exactly-once bookkeeping (journal mode only).
struct ServeState {
  ServeState(service::JobExecutor& e, ResponseWriter& w) : executor(e), writer(w) {}

  service::JobExecutor& executor;
  ResponseWriter& writer;
  service::Journal* journal = nullptr;  ///< non-null in journal mode

  std::mutex mu;
  std::set<std::string> live;       ///< accepted, response not yet written
  std::set<std::string> responded;  ///< response written (dedupe resends)
  long long deduped = 0;
  long long replayed = 0;
  long long recovered = 0;

  bool journaling() const { return journal != nullptr; }
};

/// Writes \p response and (journal mode) records the delivery. The
/// `responded` journal record is appended *after* the response line is
/// flushed: a crash in between replays the response (flagged), never
/// loses it.
void respond(ServeState& state, const io::JobResponse& response) {
  state.writer.write(response);
  if (state.journaling() && !response.id.empty()) {
    {
      const std::lock_guard<std::mutex> lock(state.mu);
      state.live.erase(response.id);
      state.responded.insert(response.id);
    }
    io::JournalRecord record;
    record.event = io::JournalEvent::kResponded;
    record.id = response.id;
    const util::Status status = state.journal->append(std::move(record));
    if (!status.ok()) {
      OCR_WARN() << "journal responded append failed: " << status.to_string();
    }
  }
}

/// Decodes, validates, materializes and submits one request line.
/// Exactly one response per id is guaranteed: immediately on
/// decode/materialize failure or admission rejection, from a worker
/// otherwise; journal-mode resends of an already-answered or in-flight
/// id are deduplicated.
void handle_line(const std::string& line, ServeState& state) {
  auto request = io::parse_job_request(line);
  if (!request.ok()) {
    respond(state, error_response("", "rejected", 2,
                                  request.status().to_string()));
    return;
  }
  if (state.journaling() && !request->id.empty()) {
    const std::lock_guard<std::mutex> lock(state.mu);
    if (state.responded.count(request->id) != 0 ||
        state.live.count(request->id) != 0) {
      // Already answered (or in flight and about to be): exactly-once
      // per id means a resend is dropped, not double-executed.
      ++state.deduped;
      util::MetricsRegistry::global().counter("service.jobs_deduped").add();
      return;
    }
    state.live.insert(request->id);
  }
  auto spec = service::spec_from_request(*request);
  if (!spec.ok()) {
    respond(state, error_response(request->id, "rejected", 2,
                                  spec.status().to_string()));
    return;
  }
  auto job = service::materialize(*spec);
  if (!job.ok()) {
    // The instance itself is broken (unknown example, unreadable file):
    // that is a job failure, not an admission decision — same contract
    // as the CLI's exit 1.
    respond(state,
            error_response(spec->id, "failed", 1, job.status().to_string()));
    return;
  }
  job->request_line = line;
  state.executor.submit(std::move(job).value(),
                        [&state](service::JobResult r) {
                          respond(state, service::to_response(r));
                        });
}

/// Whitespace-only lines are skipped, not errors (trailing newlines).
bool blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

/// SIGTERM/SIGINT without SA_RESTART, so a blocked ::read on stdin
/// returns EINTR and the serve loop can enter drain mode promptly.
void install_drain_signals() {
  struct sigaction action {};
  action.sa_handler = on_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately not SA_RESTART
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

/// Replays the journal on startup: completed-but-unresponded jobs get
/// their response synthesized from the terminal digest (no re-routing),
/// responded ids are remembered for dedupe, unfinished jobs re-enter
/// the executor through the normal submission path.
void replay_recovery(const service::RecoveryPlan& plan, ServeState& state) {
  util::MetricsRegistry& global = util::MetricsRegistry::global();
  for (const service::RecoveredJob& job : plan.jobs) {
    if (job.has_terminal && job.responded) {
      const std::lock_guard<std::mutex> lock(state.mu);
      state.responded.insert(job.id);
      continue;
    }
    if (job.has_terminal) {
      // The outcome is durable but its delivery was not recorded: emit
      // it again from the digest, flagged so clients can tell a replay
      // from a fresh execution.
      io::JobResponse response;
      response.id = job.id;
      response.status = job.terminal.status;
      response.exit_class = job.terminal.exit_class;
      response.run_ms = job.terminal.run_ms;
      response.wire_length = job.terminal.wire_length;
      response.vias = job.terminal.vias;
      response.unrouted_nets = job.terminal.unrouted_nets;
      response.cancelled_nets = job.terminal.cancelled_nets;
      response.attempts = job.terminal.attempt + 1;
      response.replayed = true;
      response.error = job.terminal.error;
      ++state.replayed;
      global.counter("service.jobs_replayed").add();
      respond(state, response);
      continue;
    }
    if (job.request.empty()) {
      OCR_WARN() << "recovery: job '" << job.id
                 << "' has no request record, cannot replay";
      continue;
    }
    ++state.recovered;
    global.counter("service.jobs_recovered").add();
    handle_line(job.request, state);
  }
}

/// Batch mode: stdin -> stdout; drain on EOF, bounded drain on signal.
int serve_stdin(const Args& args) {
  service::Journal journal;
  service::RecoveryPlan plan;
  if (!args.journal_path.empty()) {
    if (args.recover) {
      auto recovered = service::recover_journal(args.journal_path);
      if (!recovered.ok()) {
        std::fprintf(stderr, "ocr_served: %s\n",
                     recovered.status().to_string().c_str());
        return 2;
      }
      plan = std::move(recovered).value();
    }
    const util::Status status = journal.open(args.journal_path);
    if (!status.ok()) {
      std::fprintf(stderr, "ocr_served: %s\n", status.to_string().c_str());
      return 2;
    }
    journal.set_next_seq(plan.last_seq);
  }

  service::JobExecutor executor(
      executor_options(args, journal.is_open() ? &journal : nullptr));
  StdoutWriter writer;
  ServeState state{executor, writer};
  state.journal = journal.is_open() ? &journal : nullptr;

  if (args.recover) replay_recovery(plan, state);

  install_drain_signals();
  long long requests = 0;
  std::string line;
  bool eof = false;
  char buf[4096];
  std::size_t buf_len = 0, buf_pos = 0;
  while (g_stop == 0) {
    if (buf_pos == buf_len) {
      const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;  // signal: loop re-checks g_stop
        std::perror("ocr_served: read");
        break;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      buf_len = static_cast<std::size_t>(n);
      buf_pos = 0;
    }
    while (buf_pos < buf_len) {
      const char c = buf[buf_pos++];
      if (c != '\n') {
        line.push_back(c);
        continue;
      }
      if (!blank(line)) {
        ++requests;
        handle_line(line, state);
      }
      line.clear();
    }
  }
  if (eof && !blank(line)) {
    ++requests;
    handle_line(line, state);
  }

  // Drain: complete on EOF, bounded when a signal asked us to stop.
  int unfinished = 0;
  if (g_stop != 0) {
    unfinished = executor.drain_within(args.drain_deadline_ms);
  } else {
    executor.drain();
  }
  if (journal.is_open()) {
    io::JournalRecord record;
    record.event = io::JournalEvent::kDrain;
    record.unfinished = unfinished;
    const util::Status status = journal.append(std::move(record));
    if (!status.ok()) {
      OCR_WARN() << "journal drain append failed: " << status.to_string();
    }
    journal.close();
  }

  if (args.verbose || state.deduped > 0 || state.replayed > 0 ||
      state.recovered > 0) {
    std::fprintf(stderr,
                 "ocr_served: %lld requests, %lld responses, %lld recovered, "
                 "%lld replayed, %lld deduped, %d unfinished\n",
                 requests, writer.written(), state.recovered, state.replayed,
                 state.deduped, unfinished);
  }

  if (!args.manifest_path.empty()) {
    util::RunManifest manifest("ocr_served");
    manifest.add_config("workers", args.workers);
    manifest.add_config("queue_limit",
                        static_cast<long long>(args.queue_limit));
    manifest.add_config("journal", args.journal_path);
    manifest.add_config("recover", args.recover);
    manifest.add_config("retry_max", args.retry_max);
    manifest.add_config("retry_base_ms", args.retry_base_ms);
    manifest.add_config("retry_seed", args.retry_seed);
    manifest.add_config("hang_ms", args.hang_ms);
    manifest.add_config("drain_deadline_ms", args.drain_deadline_ms);
    manifest.add_provenance("journal_lines", plan.lines_total);
    manifest.add_provenance("journal_corrupt_lines", plan.lines_corrupt);
    if (!plan.first_corrupt_error.empty()) {
      manifest.add_provenance("journal_first_corrupt",
                              plan.first_corrupt_error);
    }
    manifest.add_provenance("recovered_jobs", state.recovered);
    manifest.add_provenance("replayed_responses", state.replayed);
    manifest.add_outcome("requests", requests);
    manifest.add_outcome("responses", writer.written());
    manifest.add_outcome("deduped", state.deduped);
    manifest.add_outcome("drained_unfinished", unfinished);
    manifest.add_outcome("signalled", g_stop != 0);
    manifest.capture_metrics(util::MetricsRegistry::global());
    if (!manifest.write_json_file(args.manifest_path)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   args.manifest_path.c_str());
    }
  }

  if (g_stop != 0) return unfinished == 0 ? 0 : 3;
  // EOF: every request must have been answered (or deduplicated);
  // replayed and re-executed recovery responses are extra lines on top
  // of `requests`.
  const long long expected =
      requests - state.deduped + state.replayed + state.recovered;
  return writer.written() == expected ? 0 : 1;
}

/// Socket mode: one connection at a time; each connection is its own
/// batch (drained before the next accept). SIGINT/SIGTERM exit cleanly.
/// Journaling is a stdin-mode feature — see parse_args.
int serve_socket(const Args& args) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("ocr_served: socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (args.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "ocr_served: socket path too long '%s'\n",
                 args.socket_path.c_str());
    ::close(listener);
    return 2;
  }
  std::strncpy(addr.sun_path, args.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(args.socket_path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 8) != 0) {
    std::perror("ocr_served: bind/listen");
    ::close(listener);
    return 1;
  }

  install_drain_signals();

  service::JobExecutor executor(executor_options(args, nullptr));
  while (g_stop == 0) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      std::perror("ocr_served: accept");
      break;
    }
    FdWriter writer(conn);
    ServeState state{executor, writer};
    std::string line;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(conn, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      for (ssize_t i = 0; i < n; ++i) {
        if (buf[i] != '\n') {
          line.push_back(buf[i]);
          continue;
        }
        if (!blank(line)) handle_line(line, state);
        line.clear();
      }
    }
    if (!blank(line)) handle_line(line, state);
    executor.drain();  // every response out before the connection closes
    ::close(conn);
  }
  ::close(listener);
  ::unlink(args.socket_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    usage();
    return 2;
  }
  if (args->verbose) util::set_log_level(util::LogLevel::kInfo);

  // Arm the service-layer chaos plan once at startup; per-job fault
  // arming (FaultRegistry::global()) never touches this registry.
  {
    util::FaultRegistry& chaos = util::FaultRegistry::service();
    const util::Status status =
        args->service_faults.empty()
            ? (std::getenv("OCR_SERVICE_FAULTS") != nullptr
                   ? chaos.configure(std::getenv("OCR_SERVICE_FAULTS"))
                   : util::Status())
            : chaos.configure(args->service_faults);
    if (!status.ok()) {
      std::fprintf(stderr, "ocr_served: %s\n", status.to_string().c_str());
      return 2;
    }
  }

  const int code =
      args->socket_path.empty() ? serve_stdin(*args) : serve_socket(*args);

  if (!args->metrics_json.empty()) {
    const util::MetricsSnapshot snapshot =
        util::MetricsRegistry::global().snapshot();
    if (!snapshot.write_json_file(args->metrics_json)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   args->metrics_json.c_str());
      return 1;
    }
  }
  return code;
}
