// The stmbench7 command-line benchmark (Appendix A), plus the correctness-
// oracle modes: --differential (cross-backend replay), --fuzz (deterministic
// fuzz/stress sweep with shrinking) and --check-opacity (record the run's
// committed history and verify it is opaque); --recover (replay a redo log);
// and the served run: --listen runs the benchmark on operations arriving over
// TCP, --connect drives such a run as a load client (docs/SERVING.md).

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "src/check/differential.h"
#include "src/check/fuzz.h"
#include "src/check/history.h"
#include "src/core/invariants.h"
#include "src/harness/cli.h"
#include "src/harness/report.h"
#include "src/mvstm/durable_log.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/trace/chrome_trace.h"

namespace {

int RunDifferentialMode(const sb7::BenchConfig& config) {
  sb7::DifferentialOptions options;
  options.scale = config.scale;
  options.seed = config.seed;
  if (config.max_operations > 0) {
    options.operations = static_cast<int>(config.max_operations);
  }
  options.long_traversals = config.long_traversals;
  options.structure_mods = config.structure_mods;
  options.disabled_ops = config.disabled_ops;
  std::cerr << "replaying " << options.operations << " operations under "
            << options.strategies.size() << " backends...\n";
  const sb7::DifferentialReport report = sb7::RunDifferential(options);
  std::cout << sb7::FormatDifferentialReport(report);
  return report.ok() ? 0 : 1;
}

int RunFuzzMode(const sb7::BenchConfig& config, bool strategy_given,
                const sb7::FuzzCli& cli) {
  sb7::FuzzOptions options;
  options.seed = cli.seed;
  options.cases = cli.cases;
  options.scale = config.scale;
  options.budget_seconds = cli.budget_seconds;
  options.log = &std::cerr;
  if (cli.ops_per_phase > 0) {
    options.ops_per_phase = cli.ops_per_phase;
  }
  // An explicit -g restricts the sweep to that backend; the default sweeps
  // every strategy the differential fingerprint can compare.
  if (strategy_given) {
    options.strategies = {config.strategy};
  }

  if (cli.case_index >= 0) {
    sb7::FuzzCase fuzz_case = sb7::GenerateFuzzCase(options, cli.case_index);
    if (!cli.phases.empty()) {
      std::vector<sb7::PhaseSpec> kept;
      for (const sb7::PhaseSpec& phase : fuzz_case.scenario.phases) {
        for (const std::string& name : cli.phases) {
          if (phase.name == name) {
            kept.push_back(phase);
            break;
          }
        }
      }
      if (kept.empty()) {
        std::cerr << "error: --fuzz-phases matched no phase of case " << cli.case_index
                  << "\n";
        return 2;
      }
      fuzz_case.scenario.phases = std::move(kept);
    }
    if (cli.threads_override > 0) {
      for (sb7::PhaseSpec& phase : fuzz_case.scenario.phases) {
        phase.threads = cli.threads_override;
      }
    }
    std::cerr << "reproducing fuzz case " << cli.case_index << " ("
              << fuzz_case.scenario.phases.size() << " phases, backend "
              << fuzz_case.strategy << ")...\n";
    const std::string reason = sb7::RunFuzzCase(options, fuzz_case);
    if (reason.empty()) {
      std::cout << "fuzz case " << cli.case_index << ": OK\n";
      return 0;
    }
    std::cout << "fuzz case " << cli.case_index << ": FAILED\n  " << reason << "\n";
    return 1;
  }

  const sb7::FuzzReport report = sb7::RunFuzz(options);
  if (report.ok()) {
    std::cout << "fuzz: " << report.cases_run << " cases passed (seed " << options.seed
              << ")\n";
    return 0;
  }
  const sb7::FuzzFailure& failure = *report.failure;
  std::cout << "fuzz: case " << failure.original.index << " FAILED after "
            << report.cases_run << " cases\n";
  std::cout << "  reason:    " << failure.reason << "\n";
  std::cout << "  minimal:   " << failure.minimal.scenario.phases.size() << " of "
            << failure.original.scenario.phases.size() << " phases (";
  for (size_t p = 0; p < failure.minimal.scenario.phases.size(); ++p) {
    std::cout << (p == 0 ? "" : ",") << failure.minimal.scenario.phases[p].name;
  }
  std::cout << ")\n";
  std::cout << "  reproduce: " << failure.reproduce_command << "\n";
  return 1;
}

// --recover <file>: rebuild the world from a redo log and report what was
// recovered. Exit codes: 0 = recovered (torn tails included — that is the
// kill -9 case working as designed), 1 = the log is structurally illegal or
// the recovered world violates invariants, 2 = I/O error.
int RunRecoverMode(const std::string& path, const std::string& backend) {
  std::string bytes;
  std::string error;
  if (!sb7::redo::ReadLogFile(path, &bytes, &error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  std::cerr << "replaying " << path << " (" << bytes.size() << " bytes) under '"
            << backend << "'...\n";
  const sb7::redo::ReplayResult result = sb7::redo::RecoverFromBytes(bytes, backend);
  std::cout << sb7::redo::FormatReplayResult(result);
  return result.ok ? 0 : 1;
}

// --connect <host:port>: drive a --listen run as a load client. The mix is
// the one a local run with the same flags samples. Exit codes: 0 = ran,
// 1 = the client failed (connect, handshake, connection lost).
int RunConnectMode(const sb7::BenchConfig& config, const sb7::ConnectCli& connect) {
  sb7::net::ClientOptions options;
  options.host = connect.host;
  options.port = connect.port;
  options.connections = config.threads;
  options.seconds = config.length_seconds;
  options.arrival = connect.arrival;
  options.rate_ops_per_sec = connect.rate;
  options.burst_size = connect.burst;
  options.seed = config.seed;
  options.max_ops = config.max_operations;
  sb7::OperationRegistry registry;
  options.ratios = sb7::ComputeOperationRatios(
      registry, config.read_fraction.value_or(sb7::ReadOnlyFraction(config.workload)),
      config.long_traversals, config.structure_mods, config.disabled_ops);

  std::cerr << "driving " << connect.host << ":" << connect.port << " with "
            << options.connections << " connection(s), arrival "
            << sb7::ArrivalModelName(connect.arrival) << ", for " << options.seconds
            << " s...\n";
  const sb7::net::ClientResult result = sb7::net::RunLoadClient(options);
  if (!result.Ok()) {
    std::cerr << "error: " << result.error << "\n";
    return 1;
  }
  std::cout << "client: sent " << result.sent << ", ok " << result.ok << ", op_failed "
            << result.op_failed << ", rejected " << result.rejected << ", bad " << result.bad
            << ", lost " << result.lost << "\n";
  std::cout << "throughput: " << result.Throughput() << " op/s over "
            << result.elapsed_seconds << " s\n";
  std::cout << "latency ms: p50 " << result.latency.QuantileMillis(0.50) << "  p90 "
            << result.latency.QuantileMillis(0.90) << "  p99 "
            << result.latency.QuantileMillis(0.99) << "  p999 "
            << result.latency.QuantileMillis(0.999) << "  max "
            << static_cast<double>(result.latency.max_nanos()) / 1e6 << "\n";
  std::cout << "server-side execute ms: p50 " << result.server_latency.QuantileMillis(0.50)
            << "  p99 " << result.server_latency.QuantileMillis(0.99) << "\n";
  if (result.pace.arrivals > 0) {
    std::cout << "pacing: arrivals " << result.pace.arrivals << ", delayed "
              << result.pace.delayed << " (queue delay p50 "
              << result.pace.queue_delay.QuantileMillis(0.50) << " ms, p99 "
              << result.pace.queue_delay.QuantileMillis(0.99) << " ms, backlog peak "
              << result.pace.backlog_peak << ")\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  sb7::CliResult cli = sb7::ParseCommandLine(argc, argv);
  if (cli.show_help) {
    std::cout << sb7::UsageText();
    return 0;
  }
  if (cli.error.has_value()) {
    std::cerr << "error: " << *cli.error << "\n" << sb7::UsageText();
    return 2;
  }
  if (cli.differential) {
    return RunDifferentialMode(cli.config);
  }
  if (cli.fuzz.has_value()) {
    return RunFuzzMode(cli.config, cli.strategy_given, *cli.fuzz);
  }
  if (!cli.recover_path.empty()) {
    return RunRecoverMode(cli.recover_path,
                          cli.strategy_given ? cli.config.strategy : "mvstm");
  }
  if (cli.connect.has_value()) {
    return RunConnectMode(cli.config, *cli.connect);
  }

  // The run's instruments. --listen: the workers drain the requests the
  // server admits into the queue instead of sampling operations locally.
  sb7::IngressQueue ingress(sb7::kIngressCapacity);
  std::optional<sb7::trace::Tracer> tracer;
  std::optional<sb7::telemetry::Telemetry> telemetry;
  sb7::RunInstruments instruments;
  if (cli.listen_port.has_value()) {
    instruments.ingress = &ingress;
  }
  if (!cli.trace_path.empty()) {
    instruments.tracer = &tracer.emplace(cli.trace);
  }
  if (!cli.telemetry_path.empty() || cli.telemetry.metrics_port >= 0) {
    instruments.telemetry = &telemetry.emplace(cli.telemetry);
  }
  std::cerr << "building the " << cli.config.scale << " structure...\n";
  sb7::BenchmarkRunner runner(cli.config, instruments);
  std::unique_ptr<sb7::DurableLog> redo_log;
  if (!cli.redo_log.path.empty()) {
    std::string error;
    redo_log = sb7::DurableLog::Open(runner.strategy().stm(), cli.redo_log, cli.config.seed,
                                     cli.config.scale, &error);
    if (redo_log == nullptr) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
  }
  std::optional<sb7::net::OpServer> server;
  if (cli.listen_port.has_value()) {
    server.emplace(*cli.listen_port, &ingress,
                   static_cast<uint16_t>(runner.registry().all().size()));
    std::string error;
    if (!server->Start(&error)) {
      std::cerr << "error: cannot listen: " << error << "\n";
      return 2;
    }
  }
  std::cerr << "running " << runner.spawned_threads() << " thread(s) for "
            << cli.config.length_seconds << " s under '" << cli.config.strategy << "'";
  if (cli.config.scenario.has_value()) {
    std::cerr << " (scenario '" << cli.config.scenario->name << "', "
              << cli.config.scenario->phases.size() << " phases)";
  }
  if (server.has_value()) {
    std::cerr << " on operations arriving at port " << server->port();
  }
  std::cerr << "...\n";

  sb7::HistoryRecorder recorder;
  const bool record_opacity = cli.check_opacity && runner.strategy().stm() != nullptr;
  if (cli.check_opacity && !record_opacity) {
    std::cerr << "note: --check-opacity records transactional histories; strategy '"
              << cli.config.strategy << "' runs no transactions, nothing to check\n";
  }
  if (record_opacity) {
    recorder.Install();
  }
  if (cli.telemetry.metrics_port >= 0) {
    std::string error;
    if (telemetry->StartServer(&error)) {
      std::cerr << "metrics endpoint listening on port " << telemetry->server_port()
                << " (/metrics, /series)\n";
    } else {
      std::cerr << "warning: metrics endpoint disabled: " << error << "\n";
    }
  }
  const sb7::BenchResult result = runner.Run();
  if (redo_log != nullptr) {
    // Workers are joined: no commit can race the close record.
    redo_log->Close();
  }
  if (record_opacity) {
    recorder.Uninstall();
  }
  sb7::PrintReport(std::cout, runner, result, cli.ttc_histograms);
  if (server.has_value()) {
    // Run() closed the queue and answered everything admitted; late
    // arrivals got typed rejections until now.
    server->Stop();
    const sb7::net::ServerStats stats = server->stats();
    std::cout << "serve: sessions accepted " << stats.sessions_accepted << ", closed "
              << stats.sessions_closed << ", dropped " << stats.sessions_dropped
              << ", frames in " << stats.frames_in << ", bad "
              << stats.bad_frames << ", admitted " << ingress.accepted() << ", rejected "
              << ingress.rejected() << "\n";
  }

  if (redo_log != nullptr) {
    const sb7::redo::RedoLogWriter& writer = redo_log->writer();
    const sb7::redo::WriterStats stats = writer.stats();
    std::cerr << "redo log: " << writer.path() << " — " << stats.groups
              << " groups, " << stats.members << " commits, " << stats.bytes
              << " bytes, " << stats.fsyncs << " fsyncs, " << stats.overlapped_syncs
              << " overlapped (durability="
              << sb7::redo::DurabilityName(writer.durability())
              << (writer.closed() ? ", closed cleanly)" : ", NOT closed)") << "\n";
    if (!writer.ok()) {
      std::cerr << "error: redo log writer failed: " << writer.error() << "\n";
      return 2;
    }
  }

  if (!cli.csv_path.empty()) {
    std::ofstream csv(cli.csv_path);
    if (!csv) {
      std::cerr << "error: cannot write " << cli.csv_path << "\n";
      return 2;
    }
    sb7::WriteCsv(csv, runner, result);
    std::cerr << "CSV written to " << cli.csv_path << "\n";
  }

  if (!cli.trace_path.empty()) {
    std::ofstream trace(cli.trace_path);
    if (!trace) {
      std::cerr << "error: cannot write " << cli.trace_path << "\n";
      return 2;
    }
    sb7::trace::ChromeTraceOptions options;
    for (const auto& op : runner.registry().all()) {
      options.op_names.push_back(op->name());
    }
    sb7::trace::WriteChromeTrace(trace, tracer->DrainEvents(), options);
    std::cerr << "trace timeline written to " << cli.trace_path
              << " (open in Perfetto or chrome://tracing)\n";
  }

  if (!cli.telemetry_path.empty()) {
    std::ofstream series(cli.telemetry_path);
    if (!series) {
      std::cerr << "error: cannot write " << cli.telemetry_path << "\n";
      return 2;
    }
    telemetry->WriteJsonl(series);
    std::cerr << "telemetry series written to " << cli.telemetry_path << " ("
              << telemetry->SeriesSnapshot().size() << " samples)\n";
  }

  if (!cli.json_path.empty()) {
    std::ofstream json(cli.json_path);
    if (!json) {
      std::cerr << "error: cannot write " << cli.json_path << "\n";
      return 2;
    }
    sb7::WriteJson(json, runner, result);
    std::cerr << "JSON written to " << cli.json_path << "\n";
  }

  int exit_code = 0;
  if (record_opacity) {
    const sb7::History history = recorder.TakeHistory();
    if (history.truncated) {
      // A truncated history drops commits by mutex-arrival order, so kept
      // transactions can depend on dropped ones — checking it would report
      // false violations for a correct backend.
      std::cerr << "opacity: SKIPPED — recorder hit its transaction cap ("
                << history.committed.size()
                << " kept); rerun with --max-ops to bound the history\n";
    } else {
      std::cerr << "checking opacity of " << history.committed.size()
                << " recorded transactions...\n";
      const sb7::OpacityResult opacity = sb7::CheckOpacity(history);
      if (opacity.ok()) {
        std::cerr << "opacity: OK (" << opacity.serialized_updates
                  << " update transactions serialized)\n";
      } else if (opacity.inconclusive) {
        // Could not certify, but non-opacity was not proven either. Still a
        // failed gate (an oracle must not silently pass what it cannot
        // check), but labelled so nobody hunts a nonexistent STM bug.
        std::cerr << "opacity: INCONCLUSIVE — " << opacity.diagnosis
                  << "; rerun with a smaller --max-ops to bound the history\n";
        exit_code = 1;
      } else {
        std::cerr << "OPACITY VIOLATION: " << opacity.diagnosis << "\n";
        exit_code = 1;
      }
    }
  }

  if (cli.verify_invariants) {
    const sb7::InvariantReport report = sb7::CheckInvariants(runner.data());
    if (!report.ok()) {
      std::cerr << "INVARIANT VIOLATIONS (" << report.violations.size() << "):\n";
      for (const std::string& violation : report.violations) {
        std::cerr << "  " << violation << "\n";
      }
      return 1;
    }
    std::cerr << "structure invariants: OK (" << report.atomic_parts << " atomic parts, "
              << report.base_assemblies << " base assemblies live)\n";
  }
  return exit_code;
}
