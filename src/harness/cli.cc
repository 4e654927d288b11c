#include "src/harness/cli.h"

#include "src/common/checked_parse.h"
#include "src/common/text.h"
#include "src/scenario/scenario.h"
#include "src/stm/contention.h"

namespace sb7 {

std::string UsageText() {
  return R"(usage: stmbench7 [options]
  -t <n>                 number of threads (default 1)
  -l <seconds>           benchmark length (default 10)
  -w r|rw|w              workload type (default r = read-dominated)
  -g <strategy>          coarse | medium | fine | tl2 | tinystm | norec | astm | mvstm
  --no-traversals        disable long traversals
  --no-sms               disable structure modification operations
  --ttc-histograms       print TTC (latency) histograms
  -s <scale>             tiny | small | medium (default small)
  --seed <n>             RNG seed (default 20070326)
  --index <kind>         stdmap | snapshot | skiplist (default: per strategy)
  --cm <manager>         polka | karma | aggressive | timid (astm only)
  --disable <op>         disable one operation by name (repeatable)
  --short-only           apply the paper's Figure-6 operation subset
  --max-ops <n>          stop after n started operations
  --read-ratio <f>       custom read-only share in [0,1] (overrides -w)
  --read-fraction <f>    alias for --read-ratio
  --scenario <name|file> phased scenario: steady-read | write-storm | diurnal |
                         hotspot | ramp, or a key=value spec file (see README)
  --csv <file>           also write a machine-readable CSV report
  --json <file>          also write a machine-readable JSON report
  --trace <file>         trace the run and write a Chrome trace-event JSON
                         timeline (load in Perfetto / chrome://tracing)
  --trace-sample <n>     record every nth transaction's timeline events
                         (default 1 = all; attribution always sees every tx)
  --trace-buffer <n>     per-thread trace ring capacity in events (default
                         65536, rounded up to a power of two)
  --telemetry <file>     sample live telemetry during the run and write the
                         series as versioned JSONL (see docs/OBSERVABILITY.md)
  --telemetry-interval <sec>
                         sampler tick interval in seconds (default 1)
  --metrics-port <n>     serve /metrics (Prometheus text) and /series (JSON)
                         on this TCP port during the run (0 = ephemeral)
  --verify               check all structure invariants after the run
  --check-opacity        record committed read/write sets and verify the
                         history is opaque (STM strategies only)
  --redo-log <file>      append a durable redo log during the run and commit
                         writers in groups (-g mvstm only; docs/DURABILITY.md)
  --durability <policy>  redo-log fsync policy: off | group | always
                         (default off; requires --redo-log)
  --crash-at <point>:<n> fault injection: wound the log and die at group n;
                         point is before-append | torn-write | after-append
                         (requires --redo-log; exits 137, like kill -9), or
                         failed-sync, whose sync of group n reports EIO
                         (requires --durability group|always; exits 1)
  --recover <file>       replay a redo log instead of running a benchmark and
                         print the recovered world's fingerprint (-g selects
                         the replay backend, default mvstm)
  --listen <port>        run the benchmark on operations arriving over TCP from
                         --connect clients (0 = ephemeral; docs/SERVING.md)
  --connect <host:port>  drive a --listen run as a load client instead: -t
                         connections for -l seconds, mixing operations as -w
                         and the mix flags say (--max-ops caps the requests)
  --arrival <model>      with --connect: closed | poisson | bursty (default
                         closed)
  --rate <ops/s>         with --connect: aggregate open-loop rate (default 1000)
  --burst <n>            with --connect: bursty batch size (default 32)
  --differential         run the differential cross-backend oracle instead of
                         a benchmark (uses --seed, -s, --max-ops)
  --fuzz <seed>          run the deterministic fuzz/stress driver (see also
                         the --fuzz-* flags below; -g restricts backends)
  --fuzz-cases <n>       number of fuzz cases to sweep (default 25)
  --fuzz-case <i>        reproduce one fuzz case instead of sweeping
  --fuzz-phases <names>  comma-separated phase subset for --fuzz-case
  --fuzz-threads <n>     force every phase of --fuzz-case to n threads
  --fuzz-ops <n>         started-operation cap per fuzz phase (default 150)
  --fuzz-budget <sec>    wall-clock budget for the fuzz sweep
  --help                 show this message
)";
}

CliResult ParseCommandLine(int argc, const char* const* argv) {
  CliResult result;
  BenchConfig& config = result.config;

  auto fail = [&result](std::string message) {
    result.error = std::move(message);
    return result;
  };

  bool fuzz_seed_given = false;
  bool fuzz_sweep_flag_given = false;  // --fuzz-cases / --fuzz-budget
  bool trace_knob_given = false;       // --trace-sample / --trace-buffer
  bool telemetry_knob_given = false;   // --telemetry-interval
  bool durability_knob_given = false;  // --durability / --crash-at
  // The --fuzz-* companion flags may appear in any order relative to --fuzz,
  // and --arrival/--rate/--burst in any order relative to --connect.
  auto fuzz_cli = [&result]() -> FuzzCli& {
    if (!result.fuzz.has_value()) {
      result.fuzz.emplace();
    }
    return *result.fuzz;
  };
  auto connect_cli = [&result]() -> ConnectCli& {
    if (!result.connect.has_value()) {
      result.connect.emplace();
    }
    return *result.connect;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string& out) {
      if (i + 1 >= argc) {
        return false;
      }
      out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--help" || arg == "-h") {
      result.show_help = true;
      return result;
    }
    if (arg == "-t") {
      if (!next(value) || !ParseIntAtLeast(value, 1, config.threads)) {
        return fail("-t requires a positive integer");
      }
    } else if (arg == "-l") {
      double seconds = 0;
      if (!next(value) || !ParseFinite(value, seconds) || seconds <= 0) {
        return fail("-l requires a positive number of seconds");
      }
      config.length_seconds = seconds;
    } else if (arg == "-w") {
      if (!next(value) || (value != "r" && value != "rw" && value != "w")) {
        return fail("-w requires r, rw or w");
      }
      config.workload = WorkloadTypeForName(value);
    } else if (arg == "-g") {
      if (!next(value)) {
        return fail("-g requires a strategy name");
      }
      if (value != "coarse" && value != "medium" && value != "fine" && value != "tl2" &&
          value != "tinystm" && value != "norec" && value != "astm" && value != "mvstm") {
        return fail("unknown strategy: " + value);
      }
      config.strategy = value;
      result.strategy_given = true;
    } else if (arg == "--no-traversals") {
      config.long_traversals = false;
    } else if (arg == "--no-sms") {
      config.structure_mods = false;
    } else if (arg == "--ttc-histograms") {
      result.ttc_histograms = true;
    } else if (arg == "-s") {
      if (!next(value) || (value != "tiny" && value != "small" && value != "medium")) {
        return fail("-s requires tiny, small or medium");
      }
      config.scale = value;
    } else if (arg == "--seed") {
      uint64_t seed = 0;
      if (!next(value) || !ParseUint64(value, seed)) {
        return fail("--seed requires an integer");
      }
      config.seed = seed;
    } else if (arg == "--index") {
      if (!next(value) ||
          (value != "stdmap" && value != "snapshot" && value != "skiplist")) {
        return fail("--index requires stdmap, snapshot or skiplist");
      }
      config.index_kind = IndexKindForName(value);
    } else if (arg == "--cm") {
      // Validate through the factory so the CLI can never drift from the
      // set of managers that actually construct.
      if (!next(value) || MakeContentionManager(value) == nullptr) {
        return fail("--cm requires polka, karma, aggressive or timid");
      }
      config.contention_manager = value;
    } else if (arg == "--disable") {
      if (!next(value)) {
        return fail("--disable requires an operation name");
      }
      config.disabled_ops.insert(value);
    } else if (arg == "--short-only") {
      for (const std::string& name : Figure6DisabledOps()) {
        config.disabled_ops.insert(name);
      }
      config.long_traversals = false;
    } else if (arg == "--read-ratio" || arg == "--read-fraction") {
      double fraction = 0;
      if (!next(value) || !ParseFinite(value, fraction) || fraction < 0 || fraction > 1) {
        return fail(arg + " requires a number in [0,1]");
      }
      config.read_fraction = fraction;
    } else if (arg == "--scenario") {
      if (!next(value) || value.empty()) {
        return fail("--scenario requires a built-in name (" + BuiltinScenarioList() +
                    ") or a spec-file path");
      }
      ScenarioParseResult loaded = LoadScenario(value);
      if (!loaded.scenario.has_value()) {
        return fail(loaded.error);
      }
      config.scenario = std::move(loaded.scenario);
    } else if (arg == "--csv") {
      if (!next(value) || value.empty()) {
        return fail("--csv requires a file path");
      }
      result.csv_path = value;
    } else if (arg == "--json") {
      if (!next(value) || value.empty()) {
        return fail("--json requires a file path");
      }
      result.json_path = value;
    } else if (arg == "--trace") {
      if (!next(value) || value.empty()) {
        return fail("--trace requires a file path");
      }
      result.trace_path = value;
    } else if (arg == "--trace-sample") {
      if (!next(value) || !ParseIntAtLeast(value, 1, result.trace.sample_period)) {
        return fail("--trace-sample requires a positive integer");
      }
      trace_knob_given = true;
    } else if (arg == "--trace-buffer") {
      int64_t capacity = 0;
      if (!next(value) || !ParseInt64(value, capacity) || capacity < 1) {
        return fail("--trace-buffer requires a positive integer");
      }
      result.trace.ring_capacity = static_cast<size_t>(capacity);
      trace_knob_given = true;
    } else if (arg == "--telemetry") {
      if (!next(value) || value.empty()) {
        return fail("--telemetry requires a file path");
      }
      result.telemetry_path = value;
    } else if (arg == "--telemetry-interval") {
      double seconds = 0;
      if (!next(value) || !ParseFinite(value, seconds) || seconds <= 0) {
        return fail("--telemetry-interval requires a positive number of seconds");
      }
      result.telemetry.interval_seconds = seconds;
      telemetry_knob_given = true;
    } else if (arg == "--metrics-port") {
      int64_t port = 0;
      if (!next(value) || !ParseInt64(value, port) || port < 0 || port > 65535) {
        return fail("--metrics-port requires a port number in [0,65535]");
      }
      result.telemetry.metrics_port = static_cast<int>(port);
    } else if (arg == "--verify") {
      result.verify_invariants = true;
    } else if (arg == "--check-opacity") {
      result.check_opacity = true;
    } else if (arg == "--redo-log") {
      if (!next(value) || value.empty()) {
        return fail("--redo-log requires a file path");
      }
      result.redo_log.path = value;
    } else if (arg == "--durability") {
      if (!next(value) || !redo::ParseDurability(value, &result.redo_log.durability)) {
        return fail("--durability requires off, group or always");
      }
      durability_knob_given = true;
    } else if (arg == "--crash-at") {
      // <point>:<group>, e.g. torn-write:5.
      std::string::size_type colon;
      uint64_t group = 0;
      if (!next(value) || (colon = value.find(':')) == std::string::npos ||
          !redo::ParseCrashPoint(value.substr(0, colon), &result.redo_log.crash.point) ||
          !ParseUint64(value.substr(colon + 1), group)) {
        return fail(
            "--crash-at requires <point>:<group> with point one of "
            "before-append, torn-write, after-append, failed-sync");
      }
      result.redo_log.crash.at_group = group;
      durability_knob_given = true;
    } else if (arg == "--recover") {
      if (!next(value) || value.empty()) {
        return fail("--recover requires a redo-log file path");
      }
      result.recover_path = value;
    } else if (arg == "--listen") {
      int64_t port = 0;
      if (!next(value) || !ParseInt64(value, port) || port < 0 || port > 65535) {
        return fail("--listen requires a port number in [0,65535]");
      }
      result.listen_port = static_cast<int>(port);
    } else if (arg == "--connect") {
      std::string::size_type colon;
      int64_t port = 0;
      if (!next(value) || (colon = value.rfind(':')) == std::string::npos || colon == 0 ||
          !ParseInt64(value.substr(colon + 1), port) || port < 1 || port > 65535) {
        return fail("--connect requires <host>:<port> with a port in [1,65535]");
      }
      connect_cli().host = value.substr(0, colon);
      connect_cli().port = static_cast<int>(port);
    } else if (arg == "--arrival") {
      if (!next(value) || !ParseArrivalModel(value, &connect_cli().arrival)) {
        return fail("--arrival requires closed, poisson or bursty");
      }
    } else if (arg == "--rate") {
      double rate = 0;
      if (!next(value) || !ParseFinite(value, rate) || rate <= 0) {
        return fail("--rate requires a positive number of operations per second");
      }
      connect_cli().rate = rate;
    } else if (arg == "--burst") {
      if (!next(value) || !ParseIntAtLeast(value, 1, connect_cli().burst)) {
        return fail("--burst requires a positive integer");
      }
    } else if (arg == "--differential") {
      result.differential = true;
    } else if (arg == "--fuzz") {
      uint64_t seed = 0;
      // Full-uint64 parsing: the shrinker prints the seed back as unsigned
      // in reproduce commands, and that round-trip must be exact.
      if (!next(value) || !ParseUint64(value, seed)) {
        return fail("--fuzz requires an integer seed");
      }
      fuzz_cli().seed = seed;
      fuzz_seed_given = true;
    } else if (arg == "--fuzz-cases") {
      if (!next(value) || !ParseIntAtLeast(value, 1, fuzz_cli().cases)) {
        return fail("--fuzz-cases requires a positive integer");
      }
      fuzz_sweep_flag_given = true;
    } else if (arg == "--fuzz-case") {
      if (!next(value) || !ParseIntAtLeast(value, 0, fuzz_cli().case_index)) {
        return fail("--fuzz-case requires a non-negative integer");
      }
    } else if (arg == "--fuzz-phases") {
      if (!next(value) || value.empty()) {
        return fail("--fuzz-phases requires a comma-separated phase list");
      }
      for (std::string& name : SplitCommaList(value)) {
        fuzz_cli().phases.push_back(std::move(name));
      }
      if (fuzz_cli().phases.empty()) {
        return fail("--fuzz-phases requires at least one phase name");
      }
    } else if (arg == "--fuzz-threads") {
      if (!next(value) || !ParseIntAtLeast(value, 1, fuzz_cli().threads_override)) {
        return fail("--fuzz-threads requires a positive integer");
      }
    } else if (arg == "--fuzz-ops") {
      int64_t ops = 0;
      if (!next(value) || !ParseInt64(value, ops) || ops < 1) {
        return fail("--fuzz-ops requires a positive integer");
      }
      fuzz_cli().ops_per_phase = ops;
    } else if (arg == "--fuzz-budget") {
      double seconds = 0;
      if (!next(value) || !ParseFinite(value, seconds) || seconds <= 0) {
        return fail("--fuzz-budget requires a positive number of seconds");
      }
      fuzz_cli().budget_seconds = seconds;
      fuzz_sweep_flag_given = true;
    } else if (arg == "--max-ops") {
      int64_t cap = 0;
      if (!next(value) || !ParseInt64(value, cap) || cap < 0) {
        return fail("--max-ops requires a non-negative integer");
      }
      config.max_operations = cap;
    } else {
      return fail("unknown argument: " + arg);
    }
  }
  if (result.fuzz.has_value() && !fuzz_seed_given) {
    return fail("--fuzz-* flags require --fuzz <seed>");
  }
  if (result.connect.has_value() && result.connect->host.empty()) {
    return fail("--arrival/--rate/--burst only apply with --connect <host:port>");
  }
  const int modes = static_cast<int>(result.differential) +
                    static_cast<int>(result.fuzz.has_value()) +
                    static_cast<int>(!result.recover_path.empty()) +
                    static_cast<int>(result.listen_port.has_value()) +
                    static_cast<int>(result.connect.has_value());
  if (modes > 1) {
    return fail("--differential, --fuzz, --recover, --listen and --connect are separate modes; "
                "give at most one");
  }
  // Mode flags that the selected mode would silently ignore are errors: a
  // flag that reads as a constraint but does nothing misleads ("bug gone").
  if (result.fuzz.has_value() && result.fuzz->case_index < 0 &&
      (!result.fuzz->phases.empty() || result.fuzz->threads_override > 0)) {
    return fail("--fuzz-phases/--fuzz-threads only apply with --fuzz-case <i>");
  }
  if (result.fuzz.has_value() && result.fuzz->case_index >= 0 && fuzz_sweep_flag_given) {
    return fail("--fuzz-cases/--fuzz-budget only apply to a sweep, not --fuzz-case");
  }
  if (result.differential && result.strategy_given) {
    return fail("--differential always compares all backends; -g is not applicable");
  }
  if (result.connect.has_value() && result.strategy_given) {
    return fail("--connect drives a --listen run, whose -g picks the strategy; "
                "-g is not applicable");
  }
  if (trace_knob_given && result.trace_path.empty()) {
    return fail("--trace-sample/--trace-buffer only apply with --trace <file>");
  }
  if (telemetry_knob_given && result.telemetry_path.empty() &&
      result.telemetry.metrics_port < 0) {
    return fail("--telemetry-interval only applies with --telemetry <file> or --metrics-port <n>");
  }
  if (durability_knob_given && result.redo_log.path.empty()) {
    return fail("--durability/--crash-at only apply with --redo-log <file>");
  }
  if (result.redo_log.crash.point == redo::CrashPoint::kFailedSync &&
      result.redo_log.durability == redo::Durability::kOff) {
    return fail("--crash-at failed-sync needs --durability group or always");
  }
  if (!result.redo_log.path.empty() && config.strategy != "mvstm") {
    return fail("--redo-log requires -g mvstm (group commit is an mvstm capability)");
  }
  if (!result.recover_path.empty() && !result.redo_log.path.empty()) {
    return fail("--recover replays an existing log; it cannot be combined with --redo-log");
  }
  return result;
}

}  // namespace sb7
