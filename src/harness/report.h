// Appendix-A report formatting: benchmark parameters, optional TTC
// histograms, detailed per-operation results, sample errors, and summary.

#ifndef STMBENCH7_SRC_HARNESS_REPORT_H_
#define STMBENCH7_SRC_HARNESS_REPORT_H_

#include <ostream>

#include "src/harness/driver.h"

namespace sb7 {

// `ttc_histograms` adds each operation's TTC (latency) histogram
// (--ttc-histograms).
void PrintReport(std::ostream& out, const BenchmarkRunner& runner, const BenchResult& result,
                 bool ttc_histograms = false);

// Name of a conflict-table op slot: slot 0 is activity outside any
// operation (setup, tests), slot i+1 is registry op i.
std::string OpSlotName(const std::vector<std::unique_ptr<Operation>>& ops, int slot);

// One StmStats block as a JSON object (counters plus the "abort_causes"
// sub-object); `indent` prefixes the object's inner lines. Shared by the
// CLI JSON report and the BENCH artifact.
void WriteStmJson(std::ostream& out, const StmStats::View& stm, const char* indent);

// Machine-readable CSV (schema 3): '#'-prefixed metadata lines (including
// the per-cause abort breakdown), then one row per enabled operation (name,
// category, read_only, configured ratio, completed, failed,
// max/mean/p50/p90/p99/p99.9 latency in ms and started throughput) and a
// TOTAL row. Scenario runs append a per-phase section (one row per phase
// with throughput, queue-delay percentiles, backlog and STM — including
// validation/kill/abort-cause — and hotspot deltas).
void WriteCsv(std::ostream& out, const BenchmarkRunner& runner, const BenchResult& result);

// Machine-readable JSON mirroring the CSV content: config and totals as one
// object, per-operation rows as an array, and — for scenario runs — one
// block per phase (including open-loop queue-delay percentiles).
void WriteJson(std::ostream& out, const BenchmarkRunner& runner, const BenchResult& result);

}  // namespace sb7

#endif  // STMBENCH7_SRC_HARNESS_REPORT_H_
