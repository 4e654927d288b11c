// Command-line parsing for the stmbench7 binary (Appendix A.1, plus the
// extensions this reproduction adds: scale, seed, index kind, contention
// manager, operation blacklist, op-count cap, and the oracle, recovery and
// served-run modes).

#ifndef STMBENCH7_SRC_HARNESS_CLI_H_
#define STMBENCH7_SRC_HARNESS_CLI_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/redo_options.h"
#include "src/harness/driver.h"
#include "src/telemetry/telemetry.h"
#include "src/trace/tracer.h"

namespace sb7 {

// `--fuzz`-mode arguments (see src/check/fuzz.h). Present iff --fuzz was
// given; the benchmark-run flags (-s, -g, --max-ops) feed into the fuzz
// options where they make sense.
struct FuzzCli {
  uint64_t seed = 0;
  int cases = 25;
  // >= 0: reproduce exactly this case instead of sweeping.
  int case_index = -1;
  // Phase-name subset for the reproduced case (from a shrunk repro command).
  std::vector<std::string> phases;
  // > 0: force every phase of the reproduced case to this thread count.
  int threads_override = 0;
  // Per-phase started-op cap override (--fuzz-ops).
  int64_t ops_per_phase = 0;
  // Wall-clock budget for the sweep (--fuzz-budget; 0 = none).
  double budget_seconds = 0.0;
};

// `--connect`-mode arguments: the load client's target and arrival
// process. Present iff --connect (or one of --arrival, --rate, --burst) was
// given. The mix comes from the benchmark-run flags (-w, --read-fraction,
// --no-traversals, --no-sms, --disable, --short-only); -t sets the
// connections, -l the duration, --max-ops the request budget, --seed the
// client's streams.
struct ConnectCli {
  std::string host;  // empty until --connect <host:port> is given
  int port = 0;
  ArrivalModel arrival = ArrivalModel::kClosed;
  double rate = 1000.0;  // aggregate open-loop target (op/s)
  int burst = 32;
};

struct CliResult {
  BenchConfig config;
  bool show_help = false;
  // Print per-operation TTC (latency) histograms (--ttc-histograms).
  bool ttc_histograms = false;
  // Run the structural invariant checker after the benchmark (--verify).
  bool verify_invariants = false;
  // Record committed read/write sets during the run and check the history
  // for opacity afterwards (--check-opacity; STM strategies only).
  bool check_opacity = false;
  // Machine-readable reports, written when non-empty (--csv, --json).
  std::string csv_path;
  std::string json_path;
  // Trace the run and write a Chrome trace-event JSON timeline here
  // (--trace; --trace-sample and --trace-buffer set `trace`).
  std::string trace_path;
  trace::TraceOptions trace;
  // Sample live telemetry and write the series as versioned JSONL here
  // (--telemetry). A run samples when this is set or telemetry.metrics_port
  // is >= 0 (--metrics-port; --telemetry-interval sets the rest of
  // `telemetry`).
  std::string telemetry_path;
  telemetry::TelemetryOptions telemetry;
  // Durable redo log, kept when redo_log.path is set (--redo-log,
  // --durability, --crash-at; -g mvstm only, docs/DURABILITY.md).
  redo::LogOptions redo_log;
  // True when -g was given explicitly (config.strategy alone cannot tell an
  // explicit "-g coarse" from the default; --fuzz needs the distinction).
  bool strategy_given = false;
  // Run the differential cross-backend oracle instead of a benchmark.
  bool differential = false;
  // Run the deterministic fuzz driver instead of a benchmark.
  std::optional<FuzzCli> fuzz;
  // Non-empty: replay this redo log (--recover <file>) instead of running a
  // benchmark. The replay backend comes from -g (default mvstm).
  std::string recover_path;
  // --listen <port>: run the benchmark on operations arriving over TCP
  // (0 = ephemeral) instead of sampling them locally.
  std::optional<int> listen_port;
  // Drive a --listen run as a load client instead of running a benchmark.
  std::optional<ConnectCli> connect;
  // Set when parsing failed; the message describes the offending argument.
  std::optional<std::string> error;
};

CliResult ParseCommandLine(int argc, const char* const* argv);

// Usage text for --help and parse errors.
std::string UsageText();

}  // namespace sb7

#endif  // STMBENCH7_SRC_HARNESS_CLI_H_
