// Tests for the benchmark-orchestration subsystem (src/perf/):
//  - the numeric helpers and the steady-state detector,
//  - the minimal JSON parser that --compare relies on,
//  - the sweep-spec parser and its validation errors,
//  - the bench/specs/ files staying pinned to the built-in sweeps,
//  - a golden test pinning the BENCH_*.json schema (top-level key set, axes
//    block, per-cell key set) — changing any of it is a schema bump,
//  - --compare regression flagging on synthetic baselines (direction,
//    threshold boundary, missing cells, metric mismatch).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <set>
#include <sstream>

#include "src/common/json.h"
#include "src/perf/compare.h"
#include "src/perf/report.h"
#include "src/perf/runner.h"
#include "src/perf/stats.h"
#include "src/perf/sweep.h"

namespace sb7::perf {
namespace {

// ---------------------------------------------------------------- stats --

TEST(PerfStatsTest, MedianMinMax) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(MinOf({3.0, 1.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(MaxOf({3.0, 1.0, 2.0}), 3.0);
}

TEST(PerfStatsTest, MedianIndexPicksTheSampleClosestToTheMedian) {
  // Median of {10, 100, 55} is 55 -> index 2.
  EXPECT_EQ(MedianIndex({10.0, 100.0, 55.0}), 2u);
  // Even count: median 30; 20 (index 0) and 40 (index 1) tie -> low index.
  EXPECT_EQ(MedianIndex({20.0, 40.0}), 0u);
  EXPECT_EQ(MedianIndex({}), 0u);
}

TEST(PerfStatsTest, QuantileInterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(QuantileOf(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(QuantileOf(v, 1.0), 40.0);
  // rank = 0.5 * 3 = 1.5 -> halfway between 20 and 30; same as Median.
  EXPECT_DOUBLE_EQ(QuantileOf(v, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(QuantileOf(v, 0.5), Median(v));
  EXPECT_DOUBLE_EQ(QuantileOf({3.0, 1.0, 2.0}, 0.5), Median({3.0, 1.0, 2.0}));
  // rank = 0.9 * 3 = 2.7 -> 30 + 0.7 * 10.
  EXPECT_NEAR(QuantileOf(v, 0.9), 37.0, 1e-12);
  EXPECT_DOUBLE_EQ(QuantileOf({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(QuantileOf({5.0}, 0.99), 5.0);
}

TEST(PerfStatsTest, SteadyStateDetectorFindsTheSettlingPoint) {
  // Ramp for 3 samples, then flat: detector should fire once the window
  // clears the ramp.
  std::vector<double> t = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
  std::vector<double> ops = {100, 400, 800, 1000, 1010, 990, 1005, 995, 1000, 1002};
  const SteadyState verdict = DetectSteadyState(t, ops, 0.05, 0.35, /*window=*/5);
  EXPECT_EQ(verdict.samples, 10);
  ASSERT_TRUE(verdict.detected);
  // The first window free of the ramp starts at index 3 (t = 0.4).
  EXPECT_DOUBLE_EQ(verdict.steady_at_s, 0.4);
  EXPECT_FALSE(verdict.warmup_covered) << "0.35s warmup does not cover settling at 0.4s";
  EXPECT_LT(verdict.tail_cv, 0.10);

  const SteadyState covered = DetectSteadyState(t, ops, 0.05, 0.5, 5);
  EXPECT_TRUE(covered.detected);
  EXPECT_TRUE(covered.warmup_covered);
}

TEST(PerfStatsTest, SteadyStateDetectorHandlesDegenerateSeries) {
  // Too short for the window: never detects, but reports the length.
  const SteadyState tiny = DetectSteadyState({0.1, 0.2}, {100, 100}, 0.1, 0.0, 5);
  EXPECT_EQ(tiny.samples, 2);
  EXPECT_FALSE(tiny.detected);

  // Monotone ramp throughout: no steady window at a tight threshold.
  std::vector<double> t, ops;
  for (int i = 0; i < 10; ++i) {
    t.push_back(0.1 * (i + 1));
    ops.push_back(100.0 * (i + 1));
  }
  EXPECT_FALSE(DetectSteadyState(t, ops, 0.01, 0.0, 5).detected);

  // All-zero throughput (mean ~0) must not divide by zero or detect.
  EXPECT_FALSE(DetectSteadyState({0.1, 0.2, 0.3, 0.4, 0.5}, {0, 0, 0, 0, 0}, 0.5, 0.0, 5)
                   .detected);
}

// ----------------------------------------------------------------- json --

TEST(PerfJsonTest, ParsesTheReportSubset) {
  const JsonParseResult parsed = ParseJson(
      R"({"a": 1.5, "b": [true, false, null], "c": {"nested": "x\ny"}, "d": -2e3})");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const JsonValue& doc = parsed.value;
  EXPECT_DOUBLE_EQ(doc.Find("a")->AsNumber(), 1.5);
  ASSERT_EQ(doc.Find("b")->Items().size(), 3u);
  EXPECT_TRUE(doc.Find("b")->Items()[0].AsBool());
  EXPECT_EQ(doc.Find("c")->Find("nested")->AsString(), "x\ny");
  EXPECT_DOUBLE_EQ(doc.Find("d")->AsNumber(), -2000.0);
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(PerfJsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("[1, 2,]").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
}

// ----------------------------------------------------------- spec parse --

TEST(SweepSpecTest, ParsesAFullSpecFile) {
  std::istringstream in(R"(# comment
name=my-sweep
title=My sweep
metric=latency
backends=tl2,mvstm
threads=1,4
workloads=r,w
scales=tiny
mixes=short
serves=inproc,wire
probes=T1
seconds=0.5
warmup=0.1
reps=2
seed=99
threshold=0.2
max_ops=500
)");
  const SweepParseResult result = ParseSweepSpec(in, "fallback");
  ASSERT_TRUE(result.spec.has_value()) << result.error;
  const SweepSpec& spec = *result.spec;
  EXPECT_EQ(spec.name, "my-sweep");
  EXPECT_EQ(spec.title, "My sweep");
  EXPECT_EQ(spec.metric, SweepMetric::kLatency);
  EXPECT_EQ(spec.backends, (std::vector<std::string>{"tl2", "mvstm"}));
  EXPECT_EQ(spec.threads, (std::vector<int>{1, 4}));
  EXPECT_EQ(spec.workloads, (std::vector<std::string>{"r", "w"}));
  EXPECT_EQ(spec.scales, (std::vector<std::string>{"tiny"}));
  EXPECT_EQ(spec.mixes, (std::vector<std::string>{"short"}));
  EXPECT_EQ(spec.serves, (std::vector<std::string>{"inproc", "wire"}));
  EXPECT_EQ(spec.probes, (std::vector<std::string>{"T1"}));
  EXPECT_DOUBLE_EQ(spec.seconds, 0.5);
  EXPECT_DOUBLE_EQ(spec.warmup, 0.1);
  EXPECT_EQ(spec.reps, 2);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_DOUBLE_EQ(spec.threshold, 0.2);
  EXPECT_EQ(spec.max_ops, 500);
  // Unset axes received their defaults.
  EXPECT_EQ(spec.indexes, (std::vector<std::string>{"default"}));
  EXPECT_EQ(spec.cms, (std::vector<std::string>{"default"}));
}

TEST(SweepSpecTest, RejectsBadSpecs) {
  auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return ParseSweepSpec(in, "t");
  };
  EXPECT_FALSE(parse("nonsense").spec.has_value());
  EXPECT_FALSE(parse("frobnicate=1\nbackends=tl2").spec.has_value());
  EXPECT_FALSE(parse("backends=warpdrive").spec.has_value());
  EXPECT_FALSE(parse("backends=tl2\nthreads=0").spec.has_value());
  EXPECT_FALSE(parse("backends=tl2\nworkloads=z").spec.has_value());
  EXPECT_FALSE(parse("backends=tl2\nmixes=bogus").spec.has_value());
  EXPECT_FALSE(parse("backends=tl2\nserves=bogus").spec.has_value());
  EXPECT_FALSE(parse("backends=tl2\nserves=wire\nscenarios=write-storm").spec.has_value())
      << "wire cells have no phased-scenario analogue";
  EXPECT_FALSE(parse("backends=mvstm\ndurabilities=bogus").spec.has_value());
  EXPECT_FALSE(parse("backends=tl2\ndurabilities=group").spec.has_value())
      << "only mvstm has the group-commit redo log";
  EXPECT_FALSE(parse("backends=tl2\nscenarios=bogus").spec.has_value());
  EXPECT_FALSE(parse("backends=tl2\nprobes=OP99x").spec.has_value());
  EXPECT_FALSE(parse("backends=tl2\nmetric=latency").spec.has_value())
      << "latency metric requires probes";
  EXPECT_FALSE(parse("").spec.has_value()) << "no backends";
}

TEST(SweepSpecTest, MixPresetsResolve) {
  ASSERT_TRUE(FindMixPreset("full").has_value());
  EXPECT_TRUE(FindMixPreset("full")->long_traversals);
  EXPECT_TRUE(FindMixPreset("full")->disabled_ops.empty());
  ASSERT_TRUE(FindMixPreset("short-only").has_value());
  EXPECT_FALSE(FindMixPreset("short-only")->long_traversals);
  EXPECT_FALSE(FindMixPreset("short-only")->disabled_ops.empty());
  ASSERT_TRUE(FindMixPreset("pinpoint").has_value());
  EXPECT_EQ(FindMixPreset("pinpoint")->disabled_ops.count("ST1"), 0u);
  EXPECT_EQ(FindMixPreset("pinpoint")->disabled_ops.count("T1"), 1u);
  EXPECT_FALSE(FindMixPreset("warp").has_value());
}

// Every built-in sweep must have a bench/specs/<name>.sweep file that parses
// to exactly the same spec — the files are the documentation of record and
// must not drift from the code.
TEST(SweepSpecTest, BenchSpecsFilesMatchTheBuiltins) {
  for (const std::string& name : BuiltinSweepNames()) {
    SCOPED_TRACE(name);
    const std::optional<SweepSpec> builtin = FindBuiltinSweep(name);
    ASSERT_TRUE(builtin.has_value());
    const std::string path = std::string(SB7_SOURCE_DIR) + "/bench/specs/" + name + ".sweep";
    const SweepParseResult from_file = LoadSweep(path);
    ASSERT_TRUE(from_file.spec.has_value()) << from_file.error;
    const SweepSpec& file_spec = *from_file.spec;
    EXPECT_EQ(file_spec.name, builtin->name);
    EXPECT_EQ(file_spec.title, builtin->title);
    EXPECT_EQ(file_spec.metric, builtin->metric);
    EXPECT_EQ(file_spec.backends, builtin->backends);
    EXPECT_EQ(file_spec.threads, builtin->threads);
    EXPECT_EQ(file_spec.workloads, builtin->workloads);
    EXPECT_EQ(file_spec.scenarios, builtin->scenarios);
    EXPECT_EQ(file_spec.scales, builtin->scales);
    EXPECT_EQ(file_spec.indexes, builtin->indexes);
    EXPECT_EQ(file_spec.cms, builtin->cms);
    EXPECT_EQ(file_spec.mixes, builtin->mixes);
    EXPECT_EQ(file_spec.serves, builtin->serves);
    EXPECT_EQ(file_spec.durabilities, builtin->durabilities);
    EXPECT_EQ(file_spec.probes, builtin->probes);
    EXPECT_DOUBLE_EQ(file_spec.seconds, builtin->seconds);
    EXPECT_DOUBLE_EQ(file_spec.warmup, builtin->warmup);
    EXPECT_EQ(file_spec.reps, builtin->reps);
    EXPECT_EQ(file_spec.seed, builtin->seed);
    EXPECT_DOUBLE_EQ(file_spec.threshold, builtin->threshold);
  }
}

TEST(SweepSpecTest, LoadSweepPrefersBuiltinsAndReportsUnknownNames) {
  EXPECT_TRUE(LoadSweep("fig4").spec.has_value());
  const SweepParseResult unknown = LoadSweep("no-such-sweep");
  EXPECT_FALSE(unknown.spec.has_value());
  EXPECT_NE(unknown.error.find("fig4"), std::string::npos)
      << "error must list the built-ins: " << unknown.error;
}

// ---------------------------------------------------------------- cells --

TEST(SweepCellsTest, ExpandIsTheCartesianProductAndKeysArePinned) {
  SweepSpec spec;
  spec.name = "t";
  spec.backends = {"coarse", "tl2"};
  spec.threads = {1, 2};
  spec.workloads = {"r", "w"};
  spec.mixes = {"full", "short"};
  ASSERT_EQ(spec.Validate(), "");
  EXPECT_EQ(spec.serves, (std::vector<std::string>{"inproc"}))
      << "the serve axis defaults to inproc-only";
  EXPECT_EQ(spec.durabilities, (std::vector<std::string>{"off"}))
      << "the durability axis defaults to no-redo-log";
  const std::vector<SweepCell> cells = ExpandCells(spec);
  ASSERT_EQ(cells.size(), 2u * 2u * 2u * 2u);
  // The canonical cell key format is part of the BENCH schema: --compare
  // matches across runs (and releases) by this exact string. The default
  // serve=inproc adds no suffix, so pre-serve-axis baselines keep matching.
  EXPECT_EQ(CellKey(cells[0]),
            "backend=coarse threads=1 workload=r scenario=- scale=small "
            "index=default cm=default mix=full");
  std::set<std::string> keys;
  for (const SweepCell& cell : cells) {
    keys.insert(CellKey(cell));
  }
  EXPECT_EQ(keys.size(), cells.size()) << "cell keys must be unique";

  // Wire cells append the serve suffix (and only they do).
  SweepCell wire = cells[0];
  wire.serve = "wire";
  EXPECT_EQ(CellKey(wire),
            "backend=coarse threads=1 workload=r scenario=- scale=small "
            "index=default cm=default mix=full serve=wire");

  // Durable cells likewise append only for non-"off" policies, so
  // pre-durability baselines keep matching their cells.
  SweepCell durable = cells[0];
  durable.durability = "group";
  EXPECT_EQ(CellKey(durable),
            "backend=coarse threads=1 workload=r scenario=- scale=small "
            "index=default cm=default mix=full durability=group");
}

// ----------------------------------------------------- BENCH_*.json golden --

// One deterministic micro-sweep shared by the golden tests: two backends
// (one lock, one STM — so both the no-stm and the stm cell shapes appear),
// op-capped, tiny structure.
const SweepResult& GoldenSweep() {
  static SweepResult* result = nullptr;
  if (result == nullptr) {
    SweepSpec spec;
    spec.name = "golden";
    spec.backends = {"coarse", "tl2"};
    spec.threads = {1};
    spec.workloads = {"r"};
    spec.scales = {"tiny"};
    spec.probes = {"ST1"};
    spec.seconds = 0.05;
    spec.warmup = 0.02;
    spec.reps = 2;
    spec.max_ops = 400;
    EXPECT_EQ(spec.Validate(), "");
    SweepRunOptions options;
    const SweepRunOutcome outcome = RunSweep(spec, options);
    EXPECT_TRUE(outcome.ok()) << outcome.error;
    result = new SweepResult(outcome.result);
  }
  return *result;
}

std::set<std::string> KeysOf(const JsonValue& object) {
  std::set<std::string> keys;
  for (const auto& [key, value] : object.Members()) {
    (void)value;
    keys.insert(key);
  }
  return keys;
}

TEST(BenchJsonGoldenTest, SchemaKeySetAndAxesBlockArePinned) {
  const SweepResult& result = GoldenSweep();
  std::ostringstream out;
  WriteSweepJson(out, result);
  const JsonParseResult parsed = ParseJson(out.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const JsonValue& doc = parsed.value;

  // Top level: exactly these keys. Additions and renames are schema bumps.
  EXPECT_EQ(KeysOf(doc), (std::set<std::string>{"schema", "tool", "sweep", "metric",
                                                "config", "axes", "cells"}));
  EXPECT_EQ(static_cast<int>(doc.Find("schema")->AsNumber()), kBenchSchemaVersion);
  EXPECT_EQ(doc.Find("tool")->AsString(), "sb7-bench");
  EXPECT_EQ(doc.Find("sweep")->AsString(), "golden");
  EXPECT_EQ(doc.Find("metric")->AsString(), "throughput");

  EXPECT_EQ(KeysOf(*doc.Find("config")),
            (std::set<std::string>{"seconds", "warmup", "reps", "seed", "threshold",
                                   "cv_threshold"}));

  // The axes block lists every axis, in spec order, even single-valued ones.
  const JsonValue* axes = doc.Find("axes");
  ASSERT_NE(axes, nullptr);
  EXPECT_EQ(KeysOf(*axes),
            (std::set<std::string>{"backends", "threads", "workloads", "scenarios",
                                   "scales", "indexes", "cms", "mixes", "serves",
                                   "durabilities"}));
  ASSERT_EQ(axes->Find("backends")->Items().size(), 2u);
  EXPECT_EQ(axes->Find("backends")->Items()[0].AsString(), "coarse");
  EXPECT_EQ(axes->Find("backends")->Items()[1].AsString(), "tl2");
  EXPECT_EQ(axes->Find("threads")->Items().size(), 1u);
  EXPECT_EQ(axes->Find("scenarios")->Items().size(), 0u);
}

TEST(BenchJsonGoldenTest, PerCellStatsKeySetIsPinned) {
  const SweepResult& result = GoldenSweep();
  std::ostringstream out;
  WriteSweepJson(out, result);
  const JsonParseResult parsed = ParseJson(out.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  const JsonValue* cells = parsed.value.Find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->Items().size(), 2u);

  // Schema 3: cells of a telemetry-on sweep (the default) always carry the
  // steady_state block. Schema 4 added "serve" and "p999_ms", schema 5
  // "durability", to every cell.
  std::set<std::string> base_keys = {
      "key",  "backend", "threads", "workload", "scenario",         "scale",
      "index", "cm",     "mix",     "serve",    "durability", "reps",
      "elapsed_median_s",
      "throughput_median", "throughput_min", "throughput_max", "started_median",
      "p999_ms", "probes", "steady_state"};
  const JsonValue& coarse = cells->Items()[0];
  const JsonValue& tl2 = cells->Items()[1];
  EXPECT_EQ(coarse.Find("backend")->AsString(), "coarse");
  EXPECT_EQ(KeysOf(coarse), base_keys) << "lock-strategy cells carry no stm block";
  std::set<std::string> stm_keys = base_keys;
  stm_keys.insert("stm");
  EXPECT_EQ(KeysOf(tl2), stm_keys) << "STM cells append the stm counter block";

  // The steady_state block's key set is pinned with the rest of the schema.
  const JsonValue* steady = coarse.Find("steady_state");
  ASSERT_NE(steady, nullptr);
  EXPECT_EQ(KeysOf(*steady),
            (std::set<std::string>{"samples", "detected", "steady_at_s", "tail_cv",
                                   "warmup_s", "warmup_covered"}));

  // The cell key round-trips through the runner's canonical format.
  EXPECT_EQ(coarse.Find("key")->AsString(),
            "backend=coarse threads=1 workload=r scenario=- scale=tiny "
            "index=default cm=default mix=full");

  // Per-cell stats: medians carry real data, spread brackets the median.
  EXPECT_GT(coarse.Find("throughput_median")->AsNumber(), 0.0);
  EXPECT_LE(coarse.Find("throughput_min")->AsNumber(),
            coarse.Find("throughput_median")->AsNumber());
  EXPECT_GE(coarse.Find("throughput_max")->AsNumber(),
            coarse.Find("throughput_median")->AsNumber());
  EXPECT_EQ(static_cast<int>(coarse.Find("reps")->AsNumber()), 2);

  // Probes: one entry per configured probe op, with the pinned key set.
  const JsonValue* probes = coarse.Find("probes");
  ASSERT_NE(probes, nullptr);
  ASSERT_EQ(probes->Items().size(), 1u);
  EXPECT_EQ(KeysOf(probes->Items()[0]),
            (std::set<std::string>{"op", "max_ms_median", "max_ms_min", "max_ms_max"}));
  EXPECT_EQ(probes->Items()[0].Find("op")->AsString(), "ST1");

  // STM block: same counter key set as the harness JSON report. Schema 2
  // added the abort_causes breakdown.
  EXPECT_EQ(KeysOf(*tl2.Find("stm")),
            (std::set<std::string>{"starts", "commits", "aborts", "reads", "writes",
                                   "validation_steps", "bytes_cloned", "kills", "ro_starts",
                                   "ro_commits", "ro_aborts", "abort_causes"}));
  EXPECT_GT(tl2.Find("stm")->Find("commits")->AsNumber(), 0.0);
  EXPECT_EQ(KeysOf(*tl2.Find("stm")->Find("abort_causes")),
            (std::set<std::string>{"read_validation", "write_lock", "kill",
                                   "snapshot_too_old", "unknown"}));

  // Untraced cells carry no conflicts block.
  EXPECT_EQ(tl2.Find("conflicts"), nullptr);

  // Inproc cells carry no wire block and print serve=inproc.
  EXPECT_EQ(coarse.Find("serve")->AsString(), "inproc");
  EXPECT_EQ(coarse.Find("wire"), nullptr);
}

// A real serve=wire cell: the runner drains a loopback OpServer fed by the
// closed-loop load client, and the artifact appends the pinned wire block.
TEST(BenchJsonGoldenTest, WireCellsRunOverLoopbackAndCarryTheWireBlock) {
  SweepSpec spec;
  spec.name = "golden-wire";
  spec.backends = {"coarse"};
  spec.threads = {2};
  spec.workloads = {"r"};
  spec.scales = {"tiny"};
  spec.mixes = {"short"};
  spec.serves = {"wire"};
  spec.seconds = 0.3;
  spec.warmup = 0.0;
  spec.reps = 1;
  ASSERT_EQ(spec.Validate(), "");
  SweepRunOptions options;
  options.telemetry = false;
  const SweepRunOutcome outcome = RunSweep(spec, options);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  ASSERT_EQ(outcome.result.cells.size(), 1u);
  const CellResult& cell = outcome.result.cells[0];
  EXPECT_TRUE(cell.wire);
  EXPECT_GT(cell.throughput_median, 0.0) << "server-side accounting must see the requests";
  EXPECT_GT(cell.wire_stats.sent, 0);
  EXPECT_GT(cell.wire_stats.ok, 0);
  EXPECT_EQ(cell.wire_stats.bad, 0);
  // The run-end drain rejects stranded requests instead of losing them, so
  // a closed-loop client never times out waiting on a dead queue.
  EXPECT_EQ(cell.wire_stats.lost, 0);
  EXPECT_GE(cell.wire_stats.p999_ms, cell.wire_stats.p50_ms);

  std::ostringstream out;
  WriteSweepJson(out, outcome.result);
  const JsonParseResult parsed = ParseJson(out.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const JsonValue& jcell = parsed.value.Find("cells")->Items()[0];
  EXPECT_NE(jcell.Find("key")->AsString().find("serve=wire"), std::string::npos);
  EXPECT_EQ(jcell.Find("serve")->AsString(), "wire");
  const JsonValue* wire = jcell.Find("wire");
  ASSERT_NE(wire, nullptr);
  EXPECT_EQ(KeysOf(*wire),
            (std::set<std::string>{"sent", "ok", "op_failed", "rejected", "bad", "lost",
                                   "client_throughput", "p50_ms", "p99_ms", "p999_ms",
                                   "max_ms"}));
}

// A durable cell gives each repetition a scratch redo log, in-process and
// over the wire alike: both commit through group commit, have the writer
// checked once the repetition ends, and leave no log behind.
TEST(BenchJsonGoldenTest, DurableCellsRunInprocAndOverTheWire) {
  SweepSpec spec;
  spec.name = "golden-durable";
  spec.backends = {"mvstm"};
  spec.threads = {2};
  spec.workloads = {"w"};
  spec.scales = {"tiny"};
  spec.mixes = {"short"};
  spec.serves = {"inproc", "wire"};
  spec.durabilities = {"group"};
  spec.seconds = 0.3;
  spec.warmup = 0.0;
  spec.reps = 1;
  ASSERT_EQ(spec.Validate(), "");
  SweepRunOptions options;
  options.telemetry = false;
  const SweepRunOutcome outcome = RunSweep(spec, options);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  ASSERT_EQ(outcome.result.cells.size(), 2u);
  EXPECT_FALSE(outcome.result.cells[0].wire);
  EXPECT_TRUE(outcome.result.cells[1].wire);
  for (const CellResult& cell : outcome.result.cells) {
    EXPECT_EQ(cell.cell.durability, "group");
    EXPECT_GT(cell.throughput_median, 0.0) << CellKey(cell.cell);
    EXPECT_GT(cell.stm.commits, 0) << CellKey(cell.cell);
  }
  const std::string scratch = "/tmp/sb7_bench_" + std::to_string(::getpid()) + "_group_rep0.redo";
  EXPECT_NE(::access(scratch.c_str(), F_OK), 0) << scratch << " was left behind";
}

TEST(BenchJsonGoldenTest, TracedCellsAppendThePinnedConflictsBlock) {
  SweepSpec spec;
  spec.name = "golden-traced";
  spec.backends = {"tl2"};
  spec.threads = {1};
  spec.workloads = {"w"};
  spec.scales = {"tiny"};
  spec.seconds = 0.05;
  spec.warmup = 0.0;
  spec.reps = 1;
  spec.max_ops = 200;
  ASSERT_EQ(spec.Validate(), "");
  SweepRunOptions options;
  options.trace_cells = true;
  const SweepRunOutcome outcome = RunSweep(spec, options);
  ASSERT_TRUE(outcome.ok()) << outcome.error;

  std::ostringstream out;
  WriteSweepJson(out, outcome.result);
  const JsonParseResult parsed = ParseJson(out.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const JsonValue* cells = parsed.value.Find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->Items().size(), 1u);
  const JsonValue* conflicts = cells->Items()[0].Find("conflicts");
  ASSERT_NE(conflicts, nullptr) << "--trace-cells cells must carry the conflicts block";
  EXPECT_EQ(KeysOf(*conflicts),
            (std::set<std::string>{"total_aborts", "attributed_aborts", "dropped_events",
                                   "top_locations", "top_pairs"}));
  // A single-threaded run has no conflicts to attribute, but the block's
  // shape (and the zeros) must still be present and parseable.
  EXPECT_GE(conflicts->Find("total_aborts")->AsNumber(), 0.0);
  ASSERT_TRUE(conflicts->Find("top_pairs")->is_array());
}

TEST(BenchJsonGoldenTest, TelemetryOffCellsDropTheSteadyStateBlock) {
  SweepSpec spec;
  spec.name = "golden-quiet";
  spec.backends = {"coarse"};
  spec.threads = {1};
  spec.workloads = {"r"};
  spec.scales = {"tiny"};
  spec.seconds = 0.05;
  spec.warmup = 0.0;
  spec.reps = 1;
  spec.max_ops = 200;
  ASSERT_EQ(spec.Validate(), "");
  SweepRunOptions options;
  options.telemetry = false;
  const SweepRunOutcome outcome = RunSweep(spec, options);
  ASSERT_TRUE(outcome.ok()) << outcome.error;

  std::ostringstream out;
  WriteSweepJson(out, outcome.result);
  const JsonParseResult parsed = ParseJson(out.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const JsonValue* cells = parsed.value.Find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->Items().size(), 1u);
  EXPECT_EQ(cells->Items()[0].Find("steady_state"), nullptr);
  EXPECT_EQ(cells->Items()[0].Find("hw"), nullptr);
}

// ---------------------------------------------------------------- compare --

Baseline MakeThroughputBaseline(double a, double b) {
  Baseline baseline;
  baseline.sweep = "t";
  baseline.metric = "throughput";
  baseline.cells["cell-a"].throughput_median = a;
  baseline.cells["cell-b"].throughput_median = b;
  return baseline;
}

TEST(CompareTest, FlagsThroughputDropsBeyondTheThreshold) {
  const Baseline base = MakeThroughputBaseline(1000.0, 500.0);
  // cell-a drops 20% (beyond 15%), cell-b drops 10% (within threshold).
  const Baseline current = MakeThroughputBaseline(800.0, 450.0);
  const CompareReport report = CompareSweeps(base, current, 0.15);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.regressions, 1);
  EXPECT_TRUE(report.rows[0].regressed) << report.rows[0].key;
  EXPECT_NEAR(report.rows[0].delta_fraction, -0.2, 1e-9);
  EXPECT_FALSE(report.rows[1].regressed);
}

TEST(CompareTest, ImprovementsAndNoiseWithinThresholdPass) {
  const Baseline base = MakeThroughputBaseline(1000.0, 500.0);
  const Baseline current = MakeThroughputBaseline(1500.0, 460.0);
  const CompareReport report = CompareSweeps(base, current, 0.15);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.regressions, 0);
}

TEST(CompareTest, LatencyRegressesUpward) {
  Baseline base;
  base.sweep = "lat";
  base.metric = "latency";
  base.cells["c"].probe_max_ms["T1"] = 100.0;
  base.cells["c"].probe_max_ms["T2b"] = 50.0;
  Baseline current = base;
  current.cells["c"].probe_max_ms["T1"] = 130.0;  // +30%: regression
  current.cells["c"].probe_max_ms["T2b"] = 40.0;  // faster: fine
  const CompareReport report = CompareSweeps(base, current, 0.15);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.regressions, 1);
  EXPECT_TRUE(report.rows[0].regressed);
  EXPECT_NE(report.rows[0].key.find("probe=T1"), std::string::npos);
  EXPECT_LT(report.rows[0].delta_fraction, 0.0) << "slower must read as negative";
  EXPECT_FALSE(report.rows[1].regressed);
}

TEST(CompareTest, MissingAndNewCellsAreNotesNotRegressions) {
  const Baseline base = MakeThroughputBaseline(1000.0, 500.0);
  Baseline current;
  current.sweep = "t";
  current.metric = "throughput";
  current.cells["cell-a"].throughput_median = 990.0;
  current.cells["cell-c"].throughput_median = 123.0;
  const CompareReport report = CompareSweeps(base, current, 0.15);
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.rows.size(), 1u);
  ASSERT_EQ(report.notes.size(), 2u);
  EXPECT_NE(report.notes[0].find("cell-b"), std::string::npos);
  EXPECT_NE(report.notes[1].find("cell-c"), std::string::npos);
}

TEST(CompareTest, MetricMismatchComparesNothing) {
  Baseline base = MakeThroughputBaseline(1000.0, 500.0);
  Baseline current = base;
  current.metric = "latency";
  const CompareReport report = CompareSweeps(base, current, 0.15);
  EXPECT_TRUE(report.rows.empty());
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes[0].find("metric mismatch"), std::string::npos);
}

TEST(CompareTest, ZeroThresholdFallsBackToTheBaselines) {
  Baseline base = MakeThroughputBaseline(1000.0, 500.0);
  base.threshold = 0.5;
  const Baseline current = MakeThroughputBaseline(600.0, 300.0);  // -40% each
  const CompareReport report = CompareSweeps(base, current, /*threshold=*/0.0);
  EXPECT_TRUE(report.ok()) << "baseline threshold 0.5 must absorb a 40% drop";
  EXPECT_DOUBLE_EQ(report.threshold, 0.5);
}

// A synthetic candidate assembled from a golden run, with one cell's
// throughput injected to collapse: the full --compare path (serialize, parse
// back, compare) must flag exactly that cell. This is the in-process twin of
// the CI step that doctors BENCH_smoke.json with sed.
TEST(CompareTest, RoundTripThroughJsonFlagsInjectedRegressions) {
  const SweepResult& result = GoldenSweep();
  std::ostringstream out;
  WriteSweepJson(out, result);
  const BaselineLoadResult loaded = LoadBaseline(out.str());
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_EQ(loaded.baseline.cells.size(), 2u);

  Baseline doctored = loaded.baseline;
  const std::string victim = CellKey(result.cells[1].cell);
  doctored.cells[victim].throughput_median *= 0.01;
  const CompareReport report = CompareSweeps(loaded.baseline, doctored, 0.15);
  EXPECT_EQ(report.regressions, 1);
  ASSERT_EQ(report.rows.size(), 2u);
  for (const CompareRow& row : report.rows) {
    EXPECT_EQ(row.regressed, row.key == victim) << row.key;
  }

  // And an undoctored self-comparison passes.
  EXPECT_TRUE(CompareSweeps(loaded.baseline, loaded.baseline, 0.15).ok());
}

TEST(CompareTest, LoadBaselineRejectsGarbageAndWrongSchema) {
  EXPECT_FALSE(LoadBaseline("not json").ok());
  EXPECT_FALSE(LoadBaseline("{}").ok());
  EXPECT_FALSE(LoadBaseline(R"({"schema": 99, "sweep": "x", "metric": "throughput",
                               "cells": []})")
                   .ok());
  EXPECT_FALSE(LoadBaseline(R"({"schema": 0, "sweep": "x", "metric": "throughput",
                               "cells": []})")
                   .ok());
  // Every schema in [1, current] stays loadable: old artifacts keep gating
  // new builds.
  EXPECT_TRUE(LoadBaseline(R"({"schema": 1, "sweep": "x", "metric": "throughput",
                              "cells": []})")
                  .ok());
  EXPECT_TRUE(LoadBaseline(R"({"schema": 2, "sweep": "x", "metric": "throughput",
                              "cells": []})")
                  .ok());
}

TEST(CompareTest, ConflictCountersRideAlongAsInformationalNotes) {
  const char* with_conflicts = R"({"schema": 2, "sweep": "x", "metric": "throughput",
    "cells": [{"key": "c", "throughput_median": 100.0,
               "conflicts": {"total_aborts": 12, "attributed_aborts": 9}}]})";
  const BaselineLoadResult loaded = LoadBaseline(with_conflicts);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const BaselineCell& cell = loaded.baseline.cells.at("c");
  EXPECT_EQ(cell.conflict_total_aborts, 12.0);
  EXPECT_EQ(cell.conflict_attributed_aborts, 9.0);

  // Both sides traced: the abort context appears as a note, never a gate.
  const CompareReport both = CompareSweeps(loaded.baseline, loaded.baseline, 0.15);
  EXPECT_TRUE(both.ok());
  bool saw_abort_note = false;
  for (const std::string& note : both.notes) {
    saw_abort_note = saw_abort_note || note.rfind("aborts ", 0) == 0;
  }
  EXPECT_TRUE(saw_abort_note);

  // One side untraced (schema-1 artifact): no abort note, and still no gate.
  const BaselineLoadResult plain =
      LoadBaseline(R"({"schema": 1, "sweep": "x", "metric": "throughput",
        "cells": [{"key": "c", "throughput_median": 100.0}]})");
  ASSERT_TRUE(plain.ok()) << plain.error;
  const CompareReport mixed = CompareSweeps(plain.baseline, loaded.baseline, 0.15);
  EXPECT_TRUE(mixed.ok());
  for (const std::string& note : mixed.notes) {
    EXPECT_NE(note.rfind("aborts ", 0), 0u) << note;
  }
}

}  // namespace
}  // namespace sb7::perf
