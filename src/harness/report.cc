#include "src/harness/report.h"

#include <array>
#include <cmath>
#include <iomanip>
#include <string>

#include "src/common/json_string.h"

namespace sb7 {
namespace {

constexpr std::array<OpCategory, 4> kCategories = {
    OpCategory::kLongTraversal,
    OpCategory::kShortTraversal,
    OpCategory::kShortOperation,
    OpCategory::kStructureModification,
};

// CSV metadata schema version. 1 = the implicit pre-scenario layout; 2 adds
// p999_ms/started_per_s op columns and the per-phase section; 3 adds the
// stm_kills/abort-cause metadata keys and syncs the per-phase rows with the
// run-level STM block (validation_steps, kills, abort causes).
constexpr int kCsvSchemaVersion = 3;

void PrintConflictSummary(std::ostream& out, const trace::ConflictSummary& conflicts,
                          const std::vector<std::unique_ptr<Operation>>& ops,
                          const char* indent) {
  out << indent << "conflicts: " << conflicts.attributed_aborts << " of "
      << conflicts.total_aborts << " aborts attributed to a location\n";
  for (const trace::ConflictHotLocation& location : conflicts.top_locations) {
    out << indent << "  location 0x" << std::hex << location.key << std::dec << ": "
        << location.aborts << " aborts\n";
  }
  for (const trace::ConflictPair& pair : conflicts.top_pairs) {
    out << indent << "  " << OpSlotName(ops, pair.victim_slot) << " killed by "
        << OpSlotName(ops, pair.writer_slot) << ": " << pair.aborts << "\n";
  }
}

// One-line hardware-counter summary (telemetry runs where perf_event opened).
void PrintHwLine(std::ostream& out, const telemetry::HwSample& hw, const char* indent) {
  if (!hw.available || hw.cycles == 0) {
    return;
  }
  const double ipc = static_cast<double>(hw.instructions) / static_cast<double>(hw.cycles);
  const double stall =
      100.0 * static_cast<double>(hw.stalled_cycles) / static_cast<double>(hw.cycles);
  out << indent << "hw: cycles " << hw.cycles << ", instructions " << hw.instructions
      << " (IPC " << std::fixed << std::setprecision(2) << ipc << "), LLC misses "
      << hw.llc_misses << ", backend stalls " << std::setprecision(1) << stall << "%\n";
}

void PrintPhaseSection(std::ostream& out, const PhaseResult& phase,
                       const std::vector<std::unique_ptr<Operation>>& ops, bool traced) {
  out << "  phase " << std::left << std::setw(10) << phase.name << std::right
      << " arrival=" << ArrivalModelName(phase.arrival) << " threads=" << phase.threads
      << " read-fraction=" << std::fixed << std::setprecision(2) << phase.read_fraction;
  if (phase.zipf_theta > 0.0) {
    const double hit_rate = phase.hot_samples > 0
                                ? static_cast<double>(phase.hot_hits) /
                                      static_cast<double>(phase.hot_samples)
                                : 0.0;
    out << " zipf=" << phase.zipf_theta << " (hot " << std::setprecision(0)
        << phase.hot_fraction * 100 << "% of ids drew " << std::setprecision(1)
        << hit_rate * 100 << "% of draws)";
  }
  out << "\n";
  out << "    elapsed " << std::setprecision(3) << phase.elapsed_seconds << " s, completed "
      << phase.total_success << " (" << std::setprecision(2) << phase.SuccessThroughput()
      << " op/s), started " << phase.total_started << " (" << phase.StartedThroughput()
      << " op/s)\n";
  if (phase.arrival != ArrivalModel::kClosed) {
    const PaceMetrics& pace = phase.pace;
    const double delayed_pct =
        pace.arrivals > 0
            ? 100.0 * static_cast<double>(pace.delayed) / static_cast<double>(pace.arrivals)
            : 0.0;
    out << "    open-loop: target " << std::setprecision(0) << phase.target_rate
        << " op/s, arrivals " << pace.arrivals << ", delayed " << pace.delayed << " ("
        << std::setprecision(1) << delayed_pct << "%), queue delay p50/p99/p99.9/max "
        << std::setprecision(2) << pace.queue_delay.QuantileMillis(0.5) << "/"
        << pace.queue_delay.QuantileMillis(0.99) << "/"
        << pace.queue_delay.QuantileMillis(0.999) << "/"
        << static_cast<double>(pace.queue_delay.max_nanos()) / 1e6
        << " ms, est. backlog peak " << pace.backlog_peak << "\n";
  }
  if (phase.stm.starts > 0) {
    out << "    stm: commits " << phase.stm.commits << ", aborts " << phase.stm.aborts
        << ", read-only commits " << phase.stm.ro_commits << ", read-only aborts "
        << phase.stm.ro_aborts << "\n";
    if (phase.stm.aborts > 0) {
      out << "    abort causes: read-validation " << phase.stm.aborts_read_validation
          << ", write-lock " << phase.stm.aborts_write_lock << ", kill "
          << phase.stm.aborts_kill << ", snapshot-too-old "
          << phase.stm.aborts_snapshot_too_old << ", unknown " << phase.stm.aborts_unknown
          << "\n";
    }
  }
  if (traced && phase.conflicts.total_aborts > 0) {
    PrintConflictSummary(out, phase.conflicts, ops, "    ");
  }
  PrintHwLine(out, phase.hw, "    ");
}

}  // namespace

std::string OpSlotName(const std::vector<std::unique_ptr<Operation>>& ops, int slot) {
  if (slot <= 0 || static_cast<size_t>(slot) > ops.size()) {
    return "(none)";
  }
  return ops[slot - 1]->name();
}

void WriteStmJson(std::ostream& out, const StmStats::View& stm, const char* indent) {
  out << "{\n";
  out << indent << "  \"starts\": " << stm.starts << ", \"commits\": " << stm.commits
      << ", \"aborts\": " << stm.aborts << ",\n";
  out << indent << "  \"reads\": " << stm.reads << ", \"writes\": " << stm.writes
      << ", \"validation_steps\": " << stm.validation_steps
      << ", \"bytes_cloned\": " << stm.bytes_cloned << ", \"kills\": " << stm.kills << ",\n";
  out << indent << "  \"ro_starts\": " << stm.ro_starts
      << ", \"ro_commits\": " << stm.ro_commits << ", \"ro_aborts\": " << stm.ro_aborts
      << ",\n";
  out << indent << "  \"abort_causes\": {\"read_validation\": " << stm.aborts_read_validation
      << ", \"write_lock\": " << stm.aborts_write_lock << ", \"kill\": " << stm.aborts_kill
      << ", \"snapshot_too_old\": " << stm.aborts_snapshot_too_old
      << ", \"unknown\": " << stm.aborts_unknown << "}\n";
  out << indent << "}";
}

void PrintReport(std::ostream& out, const BenchmarkRunner& runner, const BenchResult& result) {
  const BenchConfig& config = runner.config();
  const auto& ops = runner.registry().all();

  out << "== Benchmark parameters ==\n";
  out << "  strategy:            " << config.strategy;
  if (config.strategy == "astm") {
    out << " (contention manager: " << config.contention_manager << ")";
  }
  out << "\n";
  out << "  scale:               " << config.scale << "\n";
  out << "  index kind:          "
      << IndexKindName(config.index_kind.value_or(DefaultIndexKindFor(config.strategy)))
      << "\n";
  out << "  threads:             " << runner.spawned_threads() << "\n";
  out << "  length [s]:          " << config.length_seconds << "\n";
  out << "  workload:            " << WorkloadTypeName(config.workload) << "\n";
  if (config.scenario.has_value()) {
    out << "  scenario:            " << config.scenario->name << " ("
        << config.scenario->phases.size() << " phases)\n";
  }
  out << "  long traversals:     " << (config.long_traversals ? "enabled" : "disabled") << "\n";
  out << "  structure mods:      " << (config.structure_mods ? "enabled" : "disabled") << "\n";
  if (!config.disabled_ops.empty()) {
    out << "  disabled operations:";
    for (const std::string& name : config.disabled_ops) {
      out << ' ' << name;
    }
    out << "\n";
  }
  out << "  seed:                " << config.seed << "\n";

  if (config.ttc_histograms) {
    out << "\n== TTC histograms ==\n";
    for (size_t i = 0; i < ops.size(); ++i) {
      if (result.per_op[i].success == 0) {
        continue;
      }
      out << "TTC histogram for " << ops[i]->name() << ": "
          << result.per_op[i].histogram.Format() << "\n";
    }
  }

  out << "\n== Detailed results ==\n";
  out << std::left << std::setw(6) << "op" << std::right << std::setw(12) << "completed"
      << std::setw(14) << "max-ttc[ms]" << std::setw(10) << "failed" << "\n";
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpMetrics& metrics = result.per_op[i];
    if (metrics.started() == 0 && result.ratios[i] == 0.0) {
      continue;
    }
    out << std::left << std::setw(6) << ops[i]->name() << std::right << std::setw(12)
        << metrics.success << std::setw(14) << std::fixed << std::setprecision(2)
        << result.MaxLatencyMillis(i) << std::setw(10) << metrics.failed << "\n";
  }

  // Sample errors (Appendix A §4): CT = configured ratio, RT = observed ratio
  // of successful completions, ET = |CT - RT|; AT additionally counts failed
  // executions, FT = |AT - RT|.
  out << "\n== Sample errors ==\n";
  out << std::left << std::setw(6) << "op" << std::right << std::setw(10) << "CT"
      << std::setw(10) << "RT" << std::setw(10) << "ET" << std::setw(10) << "AT"
      << std::setw(10) << "FT" << "\n";
  double total_e = 0.0;
  double total_f = 0.0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (result.ratios[i] == 0.0) {
      continue;
    }
    const OpMetrics& metrics = result.per_op[i];
    const double ct = result.ratios[i];
    const double rt = result.total_success > 0
                          ? static_cast<double>(metrics.success) /
                                static_cast<double>(result.total_success)
                          : 0.0;
    const double at = result.total_success > 0
                          ? static_cast<double>(metrics.started()) /
                                static_cast<double>(result.total_success)
                          : 0.0;
    const double et = std::abs(ct - rt);
    const double ft = std::abs(at - rt);
    total_e += et;
    total_f += ft;
    out << std::left << std::setw(6) << ops[i]->name() << std::right << std::fixed
        << std::setprecision(4) << std::setw(10) << ct << std::setw(10) << rt << std::setw(10)
        << et << std::setw(10) << at << std::setw(10) << ft << "\n";
  }
  out << "total sample errors: E = " << std::setprecision(4) << total_e << ", F = " << total_f
      << "\n";

  if (!result.phases.empty()) {
    out << "\n== Phase results ==\n";
    for (const PhaseResult& phase : result.phases) {
      PrintPhaseSection(out, phase, ops, result.traced);
    }
  }

  out << "\n== Summary results ==\n";
  for (OpCategory category : kCategories) {
    int64_t success = 0;
    int64_t failed = 0;
    int64_t max_nanos = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i]->category() != category) {
        continue;
      }
      success += result.per_op[i].success;
      failed += result.per_op[i].failed;
      max_nanos = std::max(max_nanos, result.per_op[i].histogram.max_nanos());
    }
    out << "  " << std::left << std::setw(26) << OpCategoryName(category) << std::right
        << " completed " << std::setw(10) << success << "  max-ttc[ms] " << std::setw(12)
        << std::fixed << std::setprecision(2) << static_cast<double>(max_nanos) / 1e6
        << "  failed " << std::setw(8) << failed << "  started " << std::setw(10)
        << success + failed << "\n";
  }
  out << "\n  total throughput:    " << std::fixed << std::setprecision(2)
      << result.SuccessThroughput() << " op/s successful, " << result.StartedThroughput()
      << " op/s started\n";
  out << "  elapsed time [s]:    " << std::setprecision(3) << result.elapsed_seconds << "\n";

  if (runner.strategy().stm() != nullptr) {
    const StmStats::View& stm = result.stm;
    out << "\n== STM statistics ==\n";
    out << "  starts/commits/aborts: " << stm.starts << " / " << stm.commits << " / "
        << stm.aborts << "\n";
    out << "  reads/writes:          " << stm.reads << " / " << stm.writes << "\n";
    out << "  validation steps:      " << stm.validation_steps << "\n";
    out << "  bytes cloned:          " << stm.bytes_cloned << "\n";
    out << "  contention kills:      " << stm.kills << "\n";
    out << "  read-only s/c/a:       " << stm.ro_starts << " / " << stm.ro_commits << " / "
        << stm.ro_aborts << "\n";
    if (stm.aborts > 0) {
      out << "  abort causes:          read-validation " << stm.aborts_read_validation
          << ", write-lock " << stm.aborts_write_lock << ", kill " << stm.aborts_kill
          << ", snapshot-too-old " << stm.aborts_snapshot_too_old << ", unknown "
          << stm.aborts_unknown << "\n";
    }
  }

  if (result.hw.available && result.hw.cycles > 0) {
    out << "\n== Hardware counters ==\n";
    PrintHwLine(out, result.hw, "  ");
  }

  if (result.traced) {
    out << "\n== Conflict attribution ==\n";
    PrintConflictSummary(out, result.conflicts, ops, "  ");
    if (result.trace_events_dropped > 0) {
      out << "  timeline events dropped to ring overflow: " << result.trace_events_dropped
          << " (raise --trace-buffer or --trace-sample)\n";
    }

    // Latency decomposition: where a transaction attempt's time went, per
    // operation, averaged over attempts (commits and aborts alike).
    bool any = false;
    for (const trace::OpLatencyBreakdown& lat : result.latency_by_op) {
      if (lat.attempts > 0) {
        any = true;
        break;
      }
    }
    if (any) {
      out << "\n== Latency decomposition (mean us/attempt) ==\n";
      out << std::left << std::setw(10) << "op" << std::right << std::setw(10) << "attempts"
          << std::setw(10) << "commits" << std::setw(10) << "read" << std::setw(12)
          << "validate" << std::setw(10) << "commit" << std::setw(10) << "backoff" << "\n";
      for (size_t slot = 0; slot < result.latency_by_op.size(); ++slot) {
        const trace::OpLatencyBreakdown& lat = result.latency_by_op[slot];
        if (lat.attempts == 0) {
          continue;
        }
        const double n = static_cast<double>(lat.attempts);
        out << std::left << std::setw(10) << OpSlotName(ops, static_cast<int>(slot))
            << std::right << std::setw(10) << lat.attempts << std::setw(10) << lat.commits
            << std::fixed << std::setprecision(1) << std::setw(10)
            << static_cast<double>(lat.read_nanos) / n / 1e3 << std::setw(12)
            << static_cast<double>(lat.validation_nanos) / n / 1e3 << std::setw(10)
            << static_cast<double>(lat.commit_nanos) / n / 1e3 << std::setw(10)
            << static_cast<double>(lat.backoff_nanos) / n / 1e3 << "\n";
      }
    }
  }
}

void WriteCsv(std::ostream& out, const BenchmarkRunner& runner, const BenchResult& result) {
  const BenchConfig& config = runner.config();
  const auto& ops = runner.registry().all();

  out << "# schema=" << kCsvSchemaVersion << "\n";
  out << "# strategy=" << config.strategy << "\n";
  out << "# scale=" << config.scale << "\n";
  out << "# workload=" << WorkloadTypeName(config.workload) << "\n";
  if (config.scenario.has_value()) {
    out << "# scenario=" << config.scenario->name << "\n";
    out << "# phases=" << config.scenario->phases.size() << "\n";
  }
  out << "# threads=" << runner.spawned_threads() << "\n";
  out << "# seed=" << config.seed << "\n";
  out << "# elapsed_seconds=" << result.elapsed_seconds << "\n";
  out << "# throughput_success=" << result.SuccessThroughput() << "\n";
  out << "# throughput_started=" << result.StartedThroughput() << "\n";
  if (runner.strategy().stm() != nullptr) {
    out << "# stm_commits=" << result.stm.commits << "\n";
    out << "# stm_aborts=" << result.stm.aborts << "\n";
    out << "# stm_validation_steps=" << result.stm.validation_steps << "\n";
    out << "# stm_bytes_cloned=" << result.stm.bytes_cloned << "\n";
    out << "# stm_ro_aborts=" << result.stm.ro_aborts << "\n";
    out << "# stm_kills=" << result.stm.kills << "\n";
    out << "# stm_aborts_read_validation=" << result.stm.aborts_read_validation << "\n";
    out << "# stm_aborts_write_lock=" << result.stm.aborts_write_lock << "\n";
    out << "# stm_aborts_kill=" << result.stm.aborts_kill << "\n";
    out << "# stm_aborts_snapshot_too_old=" << result.stm.aborts_snapshot_too_old << "\n";
    out << "# stm_aborts_unknown=" << result.stm.aborts_unknown << "\n";
  }
  if (result.traced) {
    out << "# trace_events_dropped=" << result.trace_events_dropped << "\n";
  }
  // Schema 2 keeps the schema-1 column order and appends p999_ms and the
  // per-operation started throughput.
  out << "op,category,read_only,ratio,completed,failed,max_ms,mean_ms,p50_ms,p90_ms,p99_ms,"
         "p999_ms,started_per_s\n";
  for (size_t i = 0; i < ops.size(); ++i) {
    if (result.ratios[i] == 0.0 && result.per_op[i].started() == 0) {
      continue;
    }
    const OpMetrics& metrics = result.per_op[i];
    const TtcHistogram& hist = metrics.histogram;
    const double started_per_s =
        result.elapsed_seconds > 0
            ? static_cast<double>(metrics.started()) / result.elapsed_seconds
            : 0.0;
    out << ops[i]->name() << ',' << OpCategoryName(ops[i]->category()) << ','
        << (ops[i]->read_only() ? 1 : 0) << ',' << result.ratios[i] << ',' << metrics.success
        << ',' << metrics.failed << ',' << static_cast<double>(hist.max_nanos()) / 1e6 << ','
        << hist.MeanMillis() << ',' << hist.QuantileMillis(0.5) << ','
        << hist.QuantileMillis(0.9) << ',' << hist.QuantileMillis(0.99) << ','
        << hist.QuantileMillis(0.999) << ',' << started_per_s << "\n";
  }
  out << "TOTAL,,," << 1.0 << ',' << result.total_success << ','
      << result.total_started - result.total_success << ",,,,,,," << result.StartedThroughput()
      << "\n";

  // Per-phase section (scenario runs): one row per phase, including the
  // open-loop queue-delay percentiles and the STM/hotspot deltas.
  if (!result.phases.empty()) {
    out << "phase,arrival,threads,read_fraction,zipf_theta,elapsed_s,completed,failed,"
           "ops_per_s,started_per_s,target_rate,arrivals,delayed,backlog_peak,"
           "qd_p50_ms,qd_p90_ms,qd_p99_ms,qd_p999_ms,qd_max_ms,"
           "stm_commits,stm_aborts,stm_ro_aborts,stm_validation_steps,stm_kills,"
           "stm_aborts_read_validation,stm_aborts_write_lock,stm_aborts_kill,"
           "stm_aborts_snapshot_too_old,hot_hits,hot_samples\n";
    for (const PhaseResult& phase : result.phases) {
      const TtcHistogram& qd = phase.pace.queue_delay;
      out << phase.name << ',' << ArrivalModelName(phase.arrival) << ',' << phase.threads
          << ',' << phase.read_fraction << ',' << phase.zipf_theta << ','
          << phase.elapsed_seconds << ',' << phase.total_success << ','
          << phase.total_started - phase.total_success << ',' << phase.SuccessThroughput()
          << ',' << phase.StartedThroughput() << ',' << phase.target_rate << ','
          << phase.pace.arrivals << ',' << phase.pace.delayed << ','
          << phase.pace.backlog_peak << ',' << qd.QuantileMillis(0.5) << ','
          << qd.QuantileMillis(0.9) << ',' << qd.QuantileMillis(0.99) << ','
          << qd.QuantileMillis(0.999) << ',' << static_cast<double>(qd.max_nanos()) / 1e6
          << ',' << phase.stm.commits << ',' << phase.stm.aborts << ',' << phase.stm.ro_aborts
          << ',' << phase.stm.validation_steps << ',' << phase.stm.kills << ','
          << phase.stm.aborts_read_validation << ',' << phase.stm.aborts_write_lock << ','
          << phase.stm.aborts_kill << ',' << phase.stm.aborts_snapshot_too_old << ','
          << phase.hot_hits << ',' << phase.hot_samples << "\n";
    }
  }
}

namespace {

void WriteConflictsJson(std::ostream& out, const trace::ConflictSummary& conflicts,
                        const std::vector<std::unique_ptr<Operation>>& ops,
                        const char* indent) {
  out << "{\n";
  out << indent << "  \"total_aborts\": " << conflicts.total_aborts
      << ", \"attributed_aborts\": " << conflicts.attributed_aborts << ",\n";
  out << indent << "  \"top_locations\": [";
  for (size_t i = 0; i < conflicts.top_locations.size(); ++i) {
    const trace::ConflictHotLocation& location = conflicts.top_locations[i];
    out << (i == 0 ? "" : ", ") << "{\"key\": \"0x" << std::hex << location.key << std::dec
        << "\", \"aborts\": " << location.aborts << "}";
  }
  out << "],\n";
  out << indent << "  \"top_pairs\": [";
  for (size_t i = 0; i < conflicts.top_pairs.size(); ++i) {
    const trace::ConflictPair& pair = conflicts.top_pairs[i];
    out << (i == 0 ? "" : ", ") << "{\"victim\": " << JsonString(OpSlotName(ops, pair.victim_slot))
        << ", \"writer\": " << JsonString(OpSlotName(ops, pair.writer_slot))
        << ", \"aborts\": " << pair.aborts << "}";
  }
  out << "]\n";
  out << indent << "}";
}

}  // namespace

void WriteJson(std::ostream& out, const BenchmarkRunner& runner, const BenchResult& result) {
  const BenchConfig& config = runner.config();
  const auto& ops = runner.registry().all();

  out << "{\n";
  out << "  \"schema\": " << kCsvSchemaVersion << ",\n";
  out << "  \"config\": {\n";
  out << "    \"strategy\": " << JsonString(config.strategy) << ",\n";
  out << "    \"contention_manager\": " << JsonString(config.contention_manager) << ",\n";
  out << "    \"scale\": " << JsonString(config.scale) << ",\n";
  out << "    \"workload\": " << JsonString(WorkloadTypeName(config.workload)) << ",\n";
  if (config.scenario.has_value()) {
    out << "    \"scenario\": " << JsonString(config.scenario->name) << ",\n";
  }
  out << "    \"threads\": " << runner.spawned_threads() << ",\n";
  out << "    \"length_seconds\": " << config.length_seconds << ",\n";
  out << "    \"seed\": " << config.seed << "\n";
  out << "  },\n";
  out << "  \"elapsed_seconds\": " << result.elapsed_seconds << ",\n";
  out << "  \"total_success\": " << result.total_success << ",\n";
  out << "  \"total_started\": " << result.total_started << ",\n";
  out << "  \"throughput_success\": " << result.SuccessThroughput() << ",\n";
  out << "  \"throughput_started\": " << result.StartedThroughput() << ",\n";
  if (runner.strategy().stm() != nullptr) {
    out << "  \"stm\": ";
    WriteStmJson(out, result.stm, "  ");
    out << ",\n";
  }
  if (result.traced) {
    out << "  \"trace\": {\n";
    out << "    \"dropped_events\": " << result.trace_events_dropped << ",\n";
    out << "    \"conflicts\": ";
    WriteConflictsJson(out, result.conflicts, ops, "    ");
    out << ",\n    \"latency_by_op\": [";
    bool first_slot = true;
    for (size_t slot = 0; slot < result.latency_by_op.size(); ++slot) {
      const trace::OpLatencyBreakdown& lat = result.latency_by_op[slot];
      if (lat.attempts == 0) {
        continue;
      }
      out << (first_slot ? "\n" : ",\n");
      first_slot = false;
      out << "      {\"op\": " << JsonString(OpSlotName(ops, static_cast<int>(slot)))
          << ", \"attempts\": " << lat.attempts << ", \"commits\": " << lat.commits
          << ", \"aborts\": " << lat.aborts << ", \"read_nanos\": " << lat.read_nanos
          << ", \"validation_nanos\": " << lat.validation_nanos
          << ", \"commit_nanos\": " << lat.commit_nanos
          << ", \"backoff_nanos\": " << lat.backoff_nanos << "}";
    }
    out << (first_slot ? "]" : "\n    ]") << "\n  },\n";
  }

  out << "  \"operations\": [";
  bool first_op = true;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (result.ratios[i] == 0.0 && result.per_op[i].started() == 0) {
      continue;
    }
    const OpMetrics& metrics = result.per_op[i];
    const TtcHistogram& hist = metrics.histogram;
    const double started_per_s =
        result.elapsed_seconds > 0
            ? static_cast<double>(metrics.started()) / result.elapsed_seconds
            : 0.0;
    out << (first_op ? "\n" : ",\n");
    first_op = false;
    out << "    {\"op\": " << JsonString(ops[i]->name())
        << ", \"category\": " << JsonString(OpCategoryName(ops[i]->category()))
        << ", \"read_only\": " << (ops[i]->read_only() ? "true" : "false")
        << ", \"ratio\": " << result.ratios[i] << ", \"completed\": " << metrics.success
        << ", \"failed\": " << metrics.failed
        << ", \"max_ms\": " << static_cast<double>(hist.max_nanos()) / 1e6
        << ", \"mean_ms\": " << hist.MeanMillis()
        << ", \"p50_ms\": " << hist.QuantileMillis(0.5)
        << ", \"p90_ms\": " << hist.QuantileMillis(0.9)
        << ", \"p99_ms\": " << hist.QuantileMillis(0.99)
        << ", \"p999_ms\": " << hist.QuantileMillis(0.999)
        << ", \"started_per_s\": " << started_per_s << "}";
  }
  out << "\n  ]";

  if (!result.phases.empty()) {
    out << ",\n  \"phases\": [";
    for (size_t p = 0; p < result.phases.size(); ++p) {
      const PhaseResult& phase = result.phases[p];
      const TtcHistogram& qd = phase.pace.queue_delay;
      out << (p == 0 ? "\n" : ",\n");
      out << "    {\n";
      out << "      \"name\": " << JsonString(phase.name) << ",\n";
      out << "      \"arrival\": " << JsonString(ArrivalModelName(phase.arrival)) << ",\n";
      out << "      \"threads\": " << phase.threads << ",\n";
      out << "      \"read_fraction\": " << phase.read_fraction << ",\n";
      out << "      \"zipf_theta\": " << phase.zipf_theta << ",\n";
      out << "      \"hot_fraction\": " << phase.hot_fraction << ",\n";
      out << "      \"elapsed_seconds\": " << phase.elapsed_seconds << ",\n";
      out << "      \"completed\": " << phase.total_success << ",\n";
      out << "      \"started\": " << phase.total_started << ",\n";
      out << "      \"ops_per_s\": " << phase.SuccessThroughput() << ",\n";
      out << "      \"started_per_s\": " << phase.StartedThroughput() << ",\n";
      out << "      \"open_loop\": {\n";
      out << "        \"target_rate\": " << phase.target_rate << ",\n";
      out << "        \"arrivals\": " << phase.pace.arrivals << ",\n";
      out << "        \"delayed\": " << phase.pace.delayed << ",\n";
      out << "        \"backlog_peak\": " << phase.pace.backlog_peak << ",\n";
      out << "        \"queue_delay_ms\": {\"p50\": " << qd.QuantileMillis(0.5)
          << ", \"p90\": " << qd.QuantileMillis(0.9) << ", \"p99\": " << qd.QuantileMillis(0.99)
          << ", \"p999\": " << qd.QuantileMillis(0.999)
          << ", \"max\": " << static_cast<double>(qd.max_nanos()) / 1e6 << "}\n";
      out << "      },\n";
      out << "      \"hotspot\": {\"hits\": " << phase.hot_hits
          << ", \"samples\": " << phase.hot_samples << "},\n";
      out << "      \"stm\": ";
      WriteStmJson(out, phase.stm, "      ");
      if (result.traced) {
        out << ",\n      \"conflicts\": ";
        WriteConflictsJson(out, phase.conflicts, ops, "      ");
      }
      out << "\n    }";
    }
    out << "\n  ]";
  }
  out << "\n}\n";
}

}  // namespace sb7
