#include "src/perf/compare.h"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "src/common/json.h"
#include "src/perf/report.h"

namespace sb7::perf {

BaselineLoadResult LoadBaseline(const std::string& json_text) {
  BaselineLoadResult result;
  const JsonParseResult parsed = ParseJson(json_text);
  if (!parsed.ok()) {
    result.error = "malformed JSON: " + parsed.error;
    return result;
  }
  const JsonValue& doc = parsed.value;
  if (!doc.is_object()) {
    result.error = "baseline is not a JSON object";
    return result;
  }
  // Accept every schema up to the current one: PR-era baselines written
  // under schema 1 keep gating newer builds (added keys are optional).
  const JsonValue* schema = doc.Find("schema");
  const int schema_version = schema == nullptr ? -1 : static_cast<int>(schema->AsNumber(-1));
  if (schema_version < 1 || schema_version > kBenchSchemaVersion) {
    result.error = "unsupported BENCH schema (expected 1.." +
                   std::to_string(kBenchSchemaVersion) + ")";
    return result;
  }
  const JsonValue* sweep = doc.Find("sweep");
  const JsonValue* metric = doc.Find("metric");
  const JsonValue* cells = doc.Find("cells");
  if (sweep == nullptr || metric == nullptr || cells == nullptr || !cells->is_array()) {
    result.error = "baseline is missing sweep/metric/cells";
    return result;
  }
  result.baseline.sweep = sweep->AsString();
  result.baseline.metric = metric->AsString();
  if (const JsonValue* config = doc.Find("config")) {
    if (const JsonValue* threshold = config->Find("threshold")) {
      result.baseline.threshold = threshold->AsNumber(0.15);
    }
  }
  for (const JsonValue& cell : cells->Items()) {
    const JsonValue* key = cell.Find("key");
    const JsonValue* throughput = cell.Find("throughput_median");
    if (key == nullptr || !key->is_string() || throughput == nullptr) {
      result.error = "baseline cell is missing key/throughput_median";
      return result;
    }
    BaselineCell& out = result.baseline.cells[key->AsString()];
    out.throughput_median = throughput->AsNumber();
    if (const JsonValue* probes = cell.Find("probes")) {
      for (const JsonValue& probe : probes->Items()) {
        const JsonValue* op = probe.Find("op");
        const JsonValue* median = probe.Find("max_ms_median");
        if (op != nullptr && median != nullptr) {
          out.probe_max_ms[op->AsString()] = median->AsNumber();
        }
      }
    }
    if (const JsonValue* conflicts = cell.Find("conflicts")) {
      if (const JsonValue* total = conflicts->Find("total_aborts")) {
        out.conflict_total_aborts = total->AsNumber(-1);
      }
      if (const JsonValue* attributed = conflicts->Find("attributed_aborts")) {
        out.conflict_attributed_aborts = attributed->AsNumber(-1);
      }
    }
  }
  return result;
}

BaselineLoadResult LoadBaselineFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    BaselineLoadResult result;
    result.error = "cannot read " + path;
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LoadBaseline(buffer.str());
}

Baseline BaselineFromResult(const SweepResult& result) {
  Baseline baseline;
  baseline.sweep = result.spec.name;
  baseline.metric = std::string(SweepMetricName(result.spec.metric));
  baseline.threshold = result.spec.threshold;
  for (const CellResult& cell : result.cells) {
    BaselineCell& out = baseline.cells[CellKey(cell.cell)];
    out.throughput_median = cell.throughput_median;
    for (const ProbeStats& probe : cell.probes) {
      out.probe_max_ms[probe.op] = probe.max_ms_median;
    }
    if (cell.traced) {
      out.conflict_total_aborts = static_cast<double>(cell.conflicts.total_aborts);
      out.conflict_attributed_aborts =
          static_cast<double>(cell.conflicts.attributed_aborts);
    }
  }
  return baseline;
}

CompareReport CompareSweeps(const Baseline& baseline, const Baseline& current,
                            double threshold) {
  CompareReport report;
  report.threshold = threshold > 0 ? threshold : baseline.threshold;

  if (baseline.metric != current.metric) {
    report.notes.push_back("metric mismatch: baseline=" + baseline.metric +
                           " current=" + current.metric + "; nothing compared");
    return report;
  }
  if (baseline.sweep != current.sweep) {
    report.notes.push_back("sweep name differs: baseline=" + baseline.sweep +
                           " current=" + current.sweep);
  }
  const bool latency = baseline.metric == "latency";

  for (const auto& [key, base_cell] : baseline.cells) {
    const auto it = current.cells.find(key);
    if (it == current.cells.end()) {
      report.notes.push_back("cell missing from current run: " + key);
      continue;
    }
    const BaselineCell& cur_cell = it->second;
    if (latency) {
      for (const auto& [op, base_ms] : base_cell.probe_max_ms) {
        const auto probe_it = cur_cell.probe_max_ms.find(op);
        if (probe_it == cur_cell.probe_max_ms.end()) {
          report.notes.push_back("probe " + op + " missing from current cell: " + key);
          continue;
        }
        const double cur_ms = probe_it->second;
        if (base_ms <= 0 || cur_ms <= 0) {
          // -1 means "the probe never completed in that run"; with no valid
          // pair of samples there is nothing to gate on.
          report.notes.push_back("probe " + op + " has no sample on one side: " + key);
          continue;
        }
        CompareRow row;
        row.key = key + " probe=" + op;
        row.baseline = base_ms;
        row.current = cur_ms;
        row.delta_fraction = -(cur_ms - base_ms) / base_ms;  // higher latency = worse
        row.regressed = cur_ms > base_ms * (1.0 + report.threshold);
        report.regressions += row.regressed ? 1 : 0;
        report.rows.push_back(row);
      }
    } else {
      if (base_cell.throughput_median <= 0) {
        report.notes.push_back("baseline throughput is zero, skipped: " + key);
        continue;
      }
      CompareRow row;
      row.key = key;
      row.baseline = base_cell.throughput_median;
      row.current = cur_cell.throughput_median;
      row.delta_fraction = (row.current - row.baseline) / row.baseline;
      row.regressed = row.current < row.baseline * (1.0 - report.threshold);
      report.regressions += row.regressed ? 1 : 0;
      report.rows.push_back(row);
      // Abort-attribution context rides along when both artifacts carry it
      // (schema-2, --trace-cells runs); informational only, never a gate.
      if (base_cell.conflict_total_aborts >= 0 && cur_cell.conflict_total_aborts >= 0) {
        std::ostringstream note;
        note << "aborts " << key << ": "
             << static_cast<int64_t>(base_cell.conflict_total_aborts) << " ("
             << static_cast<int64_t>(base_cell.conflict_attributed_aborts)
             << " attributed) -> " << static_cast<int64_t>(cur_cell.conflict_total_aborts)
             << " (" << static_cast<int64_t>(cur_cell.conflict_attributed_aborts)
             << " attributed)";
        report.notes.push_back(note.str());
      }
    }
  }
  for (const auto& [key, cell] : current.cells) {
    (void)cell;
    if (baseline.cells.find(key) == baseline.cells.end()) {
      report.notes.push_back("new cell, no baseline: " + key);
    }
  }
  return report;
}

void PrintCompareReport(std::ostream& out, const CompareReport& report) {
  out << "== Comparison (noise threshold " << std::fixed << std::setprecision(0)
      << report.threshold * 100 << "%) ==\n";
  for (const CompareRow& row : report.rows) {
    out << (row.regressed ? "REGRESSION " : "    ok     ") << std::fixed
        << std::setprecision(1) << std::setw(10) << row.baseline << " -> " << std::setw(10)
        << row.current << "  (" << std::showpos << std::setprecision(1)
        << row.delta_fraction * 100 << "%" << std::noshowpos << ")  " << row.key << "\n";
  }
  for (const std::string& note : report.notes) {
    out << "    note    " << note << "\n";
  }
  if (report.ok()) {
    out << "PASS: " << report.rows.size() << " cells within threshold\n";
  } else {
    out << "REGRESSIONS: " << report.regressions << " of " << report.rows.size()
        << " compared cells regressed\n";
  }
}

}  // namespace sb7::perf
