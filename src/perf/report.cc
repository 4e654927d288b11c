#include "src/perf/report.h"

#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "src/common/json_string.h"
#include "src/harness/report.h"

namespace sb7::perf {
namespace {

void WriteStringAxis(std::ostream& out, const char* name,
                     const std::vector<std::string>& values, bool last = false) {
  out << "    \"" << name << "\": [";
  for (size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ", ") << JsonString(values[i]);
  }
  out << "]" << (last ? "" : ",") << "\n";
}

void WriteConflictsBlock(std::ostream& out, const CellConflicts& conflicts,
                         const char* indent) {
  out << "{\n";
  out << indent << "  \"total_aborts\": " << conflicts.total_aborts
      << ", \"attributed_aborts\": " << conflicts.attributed_aborts
      << ", \"dropped_events\": " << conflicts.dropped_events << ",\n";
  out << indent << "  \"top_locations\": [";
  for (size_t i = 0; i < conflicts.top_locations.size(); ++i) {
    const trace::ConflictHotLocation& location = conflicts.top_locations[i];
    out << (i == 0 ? "" : ", ") << "{\"key\": \"0x" << std::hex << location.key << std::dec
        << "\", \"aborts\": " << location.aborts << "}";
  }
  out << "],\n";
  out << indent << "  \"top_pairs\": [";
  for (size_t i = 0; i < conflicts.top_pairs.size(); ++i) {
    const NamedConflictPair& pair = conflicts.top_pairs[i];
    out << (i == 0 ? "" : ", ") << "{\"victim\": " << JsonString(pair.victim)
        << ", \"writer\": " << JsonString(pair.writer) << ", \"aborts\": " << pair.aborts
        << "}";
  }
  out << "]\n";
  out << indent << "}";
}

}  // namespace

void WriteSweepJson(std::ostream& out, const SweepResult& result) {
  const SweepSpec& spec = result.spec;
  const auto flags = out.flags();
  out << std::setprecision(12);

  out << "{\n";
  out << "  \"schema\": " << kBenchSchemaVersion << ",\n";
  out << "  \"tool\": \"sb7-bench\",\n";
  out << "  \"sweep\": " << JsonString(spec.name) << ",\n";
  out << "  \"metric\": " << JsonString(std::string(SweepMetricName(spec.metric))) << ",\n";
  out << "  \"config\": {\"seconds\": " << spec.seconds << ", \"warmup\": " << spec.warmup
      << ", \"reps\": " << spec.reps << ", \"seed\": " << spec.seed
      << ", \"threshold\": " << spec.threshold
      << ", \"cv_threshold\": " << spec.cv_threshold << "},\n";

  out << "  \"axes\": {\n";
  WriteStringAxis(out, "backends", spec.backends);
  out << "    \"threads\": [";
  for (size_t i = 0; i < spec.threads.size(); ++i) {
    out << (i == 0 ? "" : ", ") << spec.threads[i];
  }
  out << "],\n";
  WriteStringAxis(out, "workloads", spec.workloads);
  WriteStringAxis(out, "scenarios", spec.scenarios);
  WriteStringAxis(out, "scales", spec.scales);
  WriteStringAxis(out, "indexes", spec.indexes);
  WriteStringAxis(out, "cms", spec.cms);
  WriteStringAxis(out, "mixes", spec.mixes);
  WriteStringAxis(out, "serves", spec.serves);
  WriteStringAxis(out, "durabilities", spec.durabilities, /*last=*/true);
  out << "  },\n";

  out << "  \"cells\": [";
  for (size_t c = 0; c < result.cells.size(); ++c) {
    const CellResult& cell = result.cells[c];
    out << (c == 0 ? "\n" : ",\n");
    out << "    {\n";
    out << "      \"key\": " << JsonString(CellKey(cell.cell)) << ",\n";
    out << "      \"backend\": " << JsonString(cell.cell.backend)
        << ", \"threads\": " << cell.cell.threads
        << ", \"workload\": " << JsonString(cell.cell.workload) << ", \"scenario\": "
        << JsonString(cell.cell.scenario.empty() ? "-" : cell.cell.scenario)
        << ",\n";
    out << "      \"scale\": " << JsonString(cell.cell.scale)
        << ", \"index\": " << JsonString(cell.cell.index)
        << ", \"cm\": " << JsonString(cell.cell.cm)
        << ", \"mix\": " << JsonString(cell.cell.mix)
        << ", \"serve\": " << JsonString(cell.cell.serve)
        << ", \"durability\": " << JsonString(cell.cell.durability) << ",\n";
    out << "      \"reps\": " << cell.reps
        << ", \"elapsed_median_s\": " << cell.elapsed_median_s << ",\n";
    out << "      \"throughput_median\": " << cell.throughput_median
        << ", \"throughput_min\": " << cell.throughput_min
        << ", \"throughput_max\": " << cell.throughput_max
        << ", \"started_median\": " << cell.started_median
        << ", \"p999_ms\": " << cell.p999_ms;
    if (cell.wire) {
      const WireCellStats& wire = cell.wire_stats;
      out << ",\n      \"wire\": {\"sent\": " << wire.sent << ", \"ok\": " << wire.ok
          << ", \"op_failed\": " << wire.op_failed << ", \"rejected\": " << wire.rejected
          << ", \"bad\": " << wire.bad << ", \"lost\": " << wire.lost << ",\n"
          << "        \"client_throughput\": " << wire.client_throughput
          << ", \"p50_ms\": " << wire.p50_ms << ", \"p99_ms\": " << wire.p99_ms
          << ", \"p999_ms\": " << wire.p999_ms << ", \"max_ms\": " << wire.max_ms << "}";
    }
    if (!cell.probes.empty()) {
      out << ",\n      \"probes\": [";
      for (size_t q = 0; q < cell.probes.size(); ++q) {
        const ProbeStats& probe = cell.probes[q];
        out << (q == 0 ? "" : ", ") << "{\"op\": " << JsonString(probe.op)
            << ", \"max_ms_median\": " << probe.max_ms_median
            << ", \"max_ms_min\": " << probe.max_ms_min
            << ", \"max_ms_max\": " << probe.max_ms_max << "}";
      }
      out << "]";
    }
    if (cell.has_stm) {
      out << ",\n      \"stm\": ";
      WriteStmJson(out, cell.stm, "      ");
    }
    if (cell.traced) {
      out << ",\n      \"conflicts\": ";
      WriteConflictsBlock(out, cell.conflicts, "      ");
    }
    if (cell.telemetry) {
      const SteadyState& steady = cell.steady;
      out << ",\n      \"steady_state\": {\"samples\": " << steady.samples
          << ", \"detected\": " << (steady.detected ? "true" : "false")
          << ", \"steady_at_s\": " << steady.steady_at_s
          << ", \"tail_cv\": " << steady.tail_cv << ", \"warmup_s\": " << steady.warmup_s
          << ", \"warmup_covered\": " << (steady.warmup_covered ? "true" : "false") << "}";
    }
    out << "\n    }";
  }
  out << "\n  ]\n";
  out << "}\n";
  out.flags(flags);
}

namespace {

// The column axis of the pivot table: backends when the sweep compares
// several, otherwise contention managers, otherwise mixes.
enum class ColumnAxis { kBackend, kCm, kMix };

ColumnAxis PickColumnAxis(const SweepSpec& spec) {
  if (spec.backends.size() > 1) {
    return ColumnAxis::kBackend;
  }
  if (spec.cms.size() > 1) {
    return ColumnAxis::kCm;
  }
  if (spec.mixes.size() > 1) {
    return ColumnAxis::kMix;
  }
  return ColumnAxis::kBackend;
}

const std::string& ColumnValue(const SweepCell& cell, ColumnAxis axis) {
  switch (axis) {
    case ColumnAxis::kCm:
      return cell.cm;
    case ColumnAxis::kMix:
      return cell.mix;
    case ColumnAxis::kBackend:
    default:
      return cell.backend;
  }
}

// Block header: the multi-valued axes that are neither the column axis nor
// the per-row thread axis. Single-valued axes are omitted — their value is
// in the JSON artifact and would only add noise here.
std::string BlockLabel(const SweepSpec& spec, const SweepCell& cell, ColumnAxis axis) {
  std::ostringstream out;
  auto add = [&out](const char* key, const std::string& value) {
    if (out.tellp() > 0) {
      out << "  ";
    }
    out << key << "=" << value;
  };
  if (spec.mixes.size() > 1 && axis != ColumnAxis::kMix) {
    add("mix", cell.mix);
  }
  if (spec.scales.size() > 1) {
    add("scale", cell.scale);
  }
  if (spec.scenarios.size() > 1) {
    add("scenario", cell.scenario);
  }
  if (spec.workloads.size() > 1) {
    add("workload", cell.workload);
  }
  if (spec.indexes.size() > 1) {
    add("index", cell.index);
  }
  if (spec.cms.size() > 1 && axis != ColumnAxis::kCm) {
    add("cm", cell.cm);
  }
  if (spec.serves.size() > 1) {
    add("serve", cell.serve);
  }
  if (spec.durabilities.size() > 1) {
    add("durability", cell.durability);
  }
  return out.str();
}

void PrintPivot(std::ostream& out, const SweepResult& result, const std::string& value_label,
                double (*value_of)(const CellResult&, size_t), size_t probe_index) {
  const SweepSpec& spec = result.spec;
  const ColumnAxis axis = PickColumnAxis(spec);
  const std::vector<std::string>& columns = axis == ColumnAxis::kBackend ? spec.backends
                                            : axis == ColumnAxis::kCm    ? spec.cms
                                                                         : spec.mixes;

  // (block, threads, column) -> value; blocks keep first-seen order.
  std::vector<std::string> block_order;
  std::map<std::string, std::map<int, std::map<std::string, double>>> table;
  for (const CellResult& cell : result.cells) {
    const std::string block = BlockLabel(spec, cell.cell, axis);
    if (table.find(block) == table.end()) {
      block_order.push_back(block);
    }
    table[block][cell.cell.threads][ColumnValue(cell.cell, axis)] =
        value_of(cell, probe_index);
  }

  out << "-- " << value_label << " --\n";
  for (const std::string& block : block_order) {
    if (!block.empty()) {
      out << "[" << block << "]\n";
    }
    out << std::left << std::setw(8) << "threads" << std::right;
    for (const std::string& column : columns) {
      out << " " << std::setw(12) << column;
    }
    out << "\n";
    for (const auto& [threads, row] : table[block]) {
      out << std::left << std::setw(8) << threads << std::right;
      for (const std::string& column : columns) {
        const auto it = row.find(column);
        out << " " << std::setw(12) << std::fixed << std::setprecision(1)
            << (it == row.end() ? 0.0 : it->second);
      }
      out << "\n";
    }
  }
}

double ThroughputOf(const CellResult& cell, size_t) { return cell.throughput_median; }

double ProbeLatencyOf(const CellResult& cell, size_t probe_index) {
  return probe_index < cell.probes.size() ? cell.probes[probe_index].max_ms_median : -1.0;
}

}  // namespace

void PrintSweepTable(std::ostream& out, const SweepResult& result) {
  const SweepSpec& spec = result.spec;
  out << "==================================================================\n";
  out << spec.title << "\n";
  out << "sweep=" << spec.name << "  metric=" << SweepMetricName(spec.metric)
      << "  cell=" << spec.seconds << "s x" << spec.reps << " (median"
      << (spec.reps > 1 ? ", spread in JSON" : "") << ")  warmup=" << spec.warmup << "s\n";
  out << "==================================================================\n";
  if (spec.metric == SweepMetric::kLatency) {
    for (size_t q = 0; q < spec.probes.size(); ++q) {
      PrintPivot(out, result, "max latency of " + spec.probes[q] + " [ms]", &ProbeLatencyOf,
                 q);
    }
  } else {
    PrintPivot(out, result, "throughput [op/s, median of " + std::to_string(spec.reps) + "]",
               &ThroughputOf, 0);
    // Latency probes ride along as extra tables even on throughput sweeps
    // (e.g. ablation-mvcc tracks T1 alongside op/s).
    for (size_t q = 0; q < spec.probes.size(); ++q) {
      PrintPivot(out, result, "max latency of " + spec.probes[q] + " [ms] (-1 = never ran)",
                 &ProbeLatencyOf, q);
    }
  }
}

}  // namespace sb7::perf
