// Harness integration tests: CLI parsing, multi-threaded runs under every
// strategy followed by full invariant checks, and report formatting.

#include <gtest/gtest.h>

#include <sstream>

#include "src/core/invariants.h"
#include "src/ebr/ebr.h"
#include "src/harness/cli.h"
#include "src/harness/report.h"

namespace sb7 {
namespace {

// --- CLI ---

CliResult Parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"stmbench7"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ParseCommandLine(static_cast<int>(argv.size()), argv.data());
}

TEST(CliTest, DefaultsMatchAppendixA) {
  const CliResult result = Parse({});
  ASSERT_FALSE(result.error.has_value());
  EXPECT_EQ(result.config.threads, 1);
  EXPECT_EQ(result.config.workload, WorkloadType::kReadDominated);
  EXPECT_EQ(result.config.strategy, "coarse");
  EXPECT_TRUE(result.config.long_traversals);
  EXPECT_TRUE(result.config.structure_mods);
  EXPECT_FALSE(result.config.ttc_histograms);
}

TEST(CliTest, ParsesAllAppendixAFlags) {
  const CliResult result = Parse({"-t", "8", "-l", "30", "-w", "rw", "-g", "medium",
                                  "--no-traversals", "--no-sms", "--ttc-histograms"});
  ASSERT_FALSE(result.error.has_value());
  EXPECT_EQ(result.config.threads, 8);
  EXPECT_DOUBLE_EQ(result.config.length_seconds, 30.0);
  EXPECT_EQ(result.config.workload, WorkloadType::kReadWrite);
  EXPECT_EQ(result.config.strategy, "medium");
  EXPECT_FALSE(result.config.long_traversals);
  EXPECT_FALSE(result.config.structure_mods);
  EXPECT_TRUE(result.config.ttc_histograms);
}

TEST(CliTest, ParsesExtensions) {
  const CliResult result = Parse({"-s", "medium", "--seed", "99", "--index", "skiplist",
                                  "--cm", "karma", "--disable", "OP4", "--disable", "OP5",
                                  "--max-ops", "1000", "-g", "astm"});
  ASSERT_FALSE(result.error.has_value());
  EXPECT_EQ(result.config.scale, "medium");
  EXPECT_EQ(result.config.seed, 99u);
  EXPECT_EQ(result.config.index_kind, IndexKind::kSkipList);
  EXPECT_EQ(result.config.contention_manager, "karma");
  EXPECT_EQ(result.config.disabled_ops.count("OP4"), 1u);
  EXPECT_EQ(result.config.disabled_ops.count("OP5"), 1u);
  EXPECT_EQ(result.config.max_operations, 1000);
}

TEST(CliTest, ShortOnlyAppliesFigure6Subset) {
  const CliResult result = Parse({"--short-only"});
  ASSERT_FALSE(result.error.has_value());
  EXPECT_FALSE(result.config.long_traversals);
  EXPECT_GT(result.config.disabled_ops.size(), 5u);
}

TEST(CliTest, RejectsBadArguments) {
  EXPECT_TRUE(Parse({"-t", "0"}).error.has_value());
  EXPECT_TRUE(Parse({"-t", "-3"}).error.has_value());
  EXPECT_TRUE(Parse({"-t", "abc"}).error.has_value());
  EXPECT_TRUE(Parse({"-w", "x"}).error.has_value());
  EXPECT_TRUE(Parse({"-g", "noSuchStm"}).error.has_value());
  EXPECT_TRUE(Parse({"--bogus"}).error.has_value());
  EXPECT_TRUE(Parse({"-l"}).error.has_value());
  EXPECT_TRUE(Parse({"-l", "0"}).error.has_value());
  EXPECT_TRUE(Parse({"-l", "-5"}).error.has_value());
}

TEST(CliTest, ReadFractionAliasSharesTheRangeCheck) {
  const CliResult ok = Parse({"--read-fraction", "0.25"});
  ASSERT_FALSE(ok.error.has_value());
  ASSERT_TRUE(ok.config.read_fraction.has_value());
  EXPECT_DOUBLE_EQ(*ok.config.read_fraction, 0.25);
  for (const char* bad : {"1.01", "-0.01", "nan?"}) {
    const CliResult result = Parse({"--read-fraction", bad});
    ASSERT_TRUE(result.error.has_value()) << bad;
    EXPECT_NE(result.error->find("[0,1]"), std::string::npos) << *result.error;
  }
}

TEST(CliTest, ScenarioFlagResolvesBuiltinsAndRejectsUnknownNames) {
  const CliResult ok = Parse({"--scenario", "diurnal"});
  ASSERT_FALSE(ok.error.has_value());
  ASSERT_TRUE(ok.config.scenario.has_value());
  EXPECT_EQ(ok.config.scenario->name, "diurnal");
  EXPECT_EQ(ok.config.scenario->phases.size(), 4u);

  const CliResult unknown = Parse({"--scenario", "lunchtime"});
  ASSERT_TRUE(unknown.error.has_value());
  // The error lists every valid built-in.
  for (const char* name : {"steady-read", "write-storm", "diurnal", "hotspot", "ramp"}) {
    EXPECT_NE(unknown.error->find(name), std::string::npos) << *unknown.error;
  }
  EXPECT_TRUE(Parse({"--scenario"}).error.has_value());
}

TEST(CliTest, ParsesJsonPath) {
  const CliResult result = Parse({"--json", "/tmp/x.json"});
  ASSERT_FALSE(result.error.has_value());
  EXPECT_EQ(result.config.json_path, "/tmp/x.json");
  EXPECT_TRUE(Parse({"--json"}).error.has_value());
}

TEST(CliTest, ParsesReadRatioCsvAndVerify) {
  const CliResult result =
      Parse({"--read-ratio", "0.75", "--csv", "/tmp/x.csv", "--verify"});
  ASSERT_FALSE(result.error.has_value());
  ASSERT_TRUE(result.config.read_fraction.has_value());
  EXPECT_DOUBLE_EQ(*result.config.read_fraction, 0.75);
  EXPECT_EQ(result.config.csv_path, "/tmp/x.csv");
  EXPECT_TRUE(result.config.verify_invariants);
  EXPECT_TRUE(Parse({"--read-ratio", "1.5"}).error.has_value());
  EXPECT_TRUE(Parse({"--read-ratio", "-0.1"}).error.has_value());
  EXPECT_TRUE(Parse({"--csv"}).error.has_value());
}

TEST(CliTest, ParsesCorrectnessOracleModes) {
  const CliResult opacity = Parse({"--check-opacity"});
  ASSERT_FALSE(opacity.error.has_value());
  EXPECT_TRUE(opacity.config.check_opacity);

  const CliResult differential = Parse({"--differential", "--max-ops", "50"});
  ASSERT_FALSE(differential.error.has_value());
  EXPECT_TRUE(differential.differential);
  EXPECT_EQ(differential.config.max_operations, 50);

  const CliResult sweep =
      Parse({"--fuzz", "42", "--fuzz-cases", "9", "--fuzz-ops", "77", "--fuzz-budget", "12.5"});
  ASSERT_FALSE(sweep.error.has_value());
  ASSERT_TRUE(sweep.fuzz.has_value());
  EXPECT_EQ(sweep.fuzz->seed, 42u);
  EXPECT_EQ(sweep.fuzz->cases, 9);
  EXPECT_EQ(sweep.fuzz->case_index, -1);
  EXPECT_EQ(sweep.fuzz->ops_per_phase, 77);
  EXPECT_DOUBLE_EQ(sweep.fuzz->budget_seconds, 12.5);

  const CliResult repro = Parse({"--fuzz", "42", "--fuzz-case", "3", "--fuzz-phases", "p0,p2",
                                 "--fuzz-threads", "2", "--fuzz-ops", "77"});
  ASSERT_FALSE(repro.error.has_value());
  ASSERT_TRUE(repro.fuzz.has_value());
  EXPECT_EQ(repro.fuzz->case_index, 3);
  EXPECT_EQ(repro.fuzz->phases, (std::vector<std::string>{"p0", "p2"}));
  EXPECT_EQ(repro.fuzz->threads_override, 2);
}

TEST(CliTest, RejectsBadFuzzArguments) {
  EXPECT_TRUE(Parse({"--fuzz"}).error.has_value());
  EXPECT_TRUE(Parse({"--fuzz", "abc"}).error.has_value());
  EXPECT_TRUE(Parse({"--fuzz", "1", "--fuzz-cases", "0"}).error.has_value());
  EXPECT_TRUE(Parse({"--fuzz", "1", "--fuzz-case", "-1"}).error.has_value());
  EXPECT_TRUE(Parse({"--fuzz", "1", "--fuzz-budget", "0"}).error.has_value());
  // The companion flags demand the mode flag itself.
  const CliResult orphan = Parse({"--fuzz-cases", "5"});
  ASSERT_TRUE(orphan.error.has_value());
  EXPECT_NE(orphan.error->find("--fuzz <seed>"), std::string::npos);
  // Flags the selected mode would silently ignore are rejected: phase and
  // thread overrides belong to a reproduced case, sweep bounds to a sweep,
  // and --differential always compares all backends.
  EXPECT_TRUE(Parse({"--fuzz", "1", "--fuzz-phases", "p0"}).error.has_value());
  EXPECT_TRUE(Parse({"--fuzz", "1", "--fuzz-threads", "2"}).error.has_value());
  EXPECT_TRUE(Parse({"--fuzz", "1", "--fuzz-case", "0", "--fuzz-cases", "9"}).error.has_value());
  EXPECT_TRUE(Parse({"--fuzz", "1", "--fuzz-case", "0", "--fuzz-budget", "5"}).error.has_value());
  EXPECT_TRUE(Parse({"--differential", "-g", "mvstm"}).error.has_value());
}

TEST(CliTest, ParsesServedRunModes) {
  const CliResult listen = Parse({"--listen", "0", "-g", "tl2", "-t", "4"});
  ASSERT_FALSE(listen.error.has_value()) << *listen.error;
  EXPECT_EQ(listen.listen_port, 0);
  EXPECT_FALSE(listen.connect.has_value());
  EXPECT_EQ(listen.config.strategy, "tl2");
  EXPECT_EQ(Parse({"--listen", "65535"}).listen_port, 65535);
  for (const char* bad : {"-1", "65536", "http", ""}) {
    EXPECT_TRUE(Parse({"--listen", bad}).error.has_value()) << bad;
  }
  EXPECT_TRUE(Parse({"--listen"}).error.has_value());

  const CliResult connect = Parse({"--connect", "127.0.0.1:9287", "--arrival", "poisson",
                                   "--rate", "2000", "--burst", "8", "-t", "4", "-w", "rw"});
  ASSERT_FALSE(connect.error.has_value()) << *connect.error;
  ASSERT_TRUE(connect.connect.has_value());
  EXPECT_FALSE(connect.listen_port.has_value());
  EXPECT_EQ(connect.connect->host, "127.0.0.1");
  EXPECT_EQ(connect.connect->port, 9287);
  EXPECT_EQ(connect.connect->arrival, ArrivalModel::kPoisson);
  EXPECT_DOUBLE_EQ(connect.connect->rate, 2000.0);
  EXPECT_EQ(connect.connect->burst, 8);
  EXPECT_EQ(connect.config.threads, 4);
  EXPECT_EQ(connect.config.workload, WorkloadType::kReadWrite);

  // The client flags may precede --connect; unset ones keep their defaults.
  const CliResult reordered = Parse({"--arrival", "bursty", "--connect", "host:1"});
  ASSERT_FALSE(reordered.error.has_value()) << *reordered.error;
  EXPECT_EQ(reordered.connect->arrival, ArrivalModel::kBursty);
  EXPECT_DOUBLE_EQ(reordered.connect->rate, 1000.0);
  EXPECT_EQ(reordered.connect->burst, 32);
  for (const char* bad : {"9287", "host:", ":9287", "host:0", "host:65536", "host:port"}) {
    EXPECT_TRUE(Parse({"--connect", bad}).error.has_value()) << bad;
  }
}

TEST(CliTest, ServedRunModesExcludeEachOtherAndTheOracleModes) {
  EXPECT_TRUE(Parse({"--listen", "0", "--connect", "host:1"}).error.has_value());
  const std::vector<std::vector<const char*>> others = {
      {"--differential"}, {"--fuzz", "1"}, {"--recover", "run.redo"}};
  for (const auto& other : others) {
    for (const std::vector<const char*>& mode :
         {std::vector<const char*>{"--listen", "0"},
          std::vector<const char*>{"--connect", "host:1"}}) {
      std::vector<const char*> argv{"stmbench7"};
      argv.insert(argv.end(), mode.begin(), mode.end());
      argv.insert(argv.end(), other.begin(), other.end());
      EXPECT_TRUE(ParseCommandLine(static_cast<int>(argv.size()), argv.data()).error.has_value())
          << mode[0] << " with " << other[0];
    }
  }
}

TEST(CliTest, ClientFlagsNeedConnectAndConnectTakesNoStrategy) {
  EXPECT_TRUE(Parse({"--arrival", "poisson"}).error.has_value());
  EXPECT_TRUE(Parse({"--rate", "10"}).error.has_value());
  EXPECT_TRUE(Parse({"--burst", "4"}).error.has_value());
  EXPECT_TRUE(Parse({"--listen", "0", "--rate", "10"}).error.has_value());
  EXPECT_TRUE(Parse({"--connect", "host:1", "--arrival", "bogus"}).error.has_value());
  EXPECT_TRUE(Parse({"--connect", "host:1", "--rate", "0"}).error.has_value());
  EXPECT_TRUE(Parse({"--connect", "host:1", "--burst", "0"}).error.has_value());
  // The --listen side picks the strategy, as --differential picks them all.
  EXPECT_TRUE(Parse({"--connect", "host:1", "-g", "tl2"}).error.has_value());
}

TEST(CliTest, ServedRunsKeepTheBenchmarkFlagChecks) {
  EXPECT_TRUE(Parse({"--listen", "0", "-g", "bogus"}).error.has_value());
  EXPECT_TRUE(Parse({"--listen", "0", "-s", "bogus"}).error.has_value());
  EXPECT_TRUE(Parse({"--listen", "0", "--durability", "always"}).error.has_value());
  EXPECT_TRUE(Parse({"--connect", "127.0.0.1:9287", "-w", "bogus"}).error.has_value());
}

TEST(CliTest, SeedsRoundTripTheFullUint64Range) {
  // Reproduce commands print seeds back as unsigned; both spellings of the
  // same seed must parse to the same value.
  const CliResult negative = Parse({"--fuzz", "-1"});
  ASSERT_FALSE(negative.error.has_value());
  const CliResult unsigned_max = Parse({"--fuzz", "18446744073709551615"});
  ASSERT_FALSE(unsigned_max.error.has_value());
  EXPECT_EQ(negative.fuzz->seed, unsigned_max.fuzz->seed);

  const CliResult seed = Parse({"--seed", "18446744073709551615"});
  ASSERT_FALSE(seed.error.has_value());
  EXPECT_EQ(seed.config.seed, ~uint64_t{0});
  EXPECT_TRUE(Parse({"--seed", "99999999999999999999999"}).error.has_value());
}

TEST(CliTest, HelpShortCircuits) {
  EXPECT_TRUE(Parse({"--help"}).show_help);
  EXPECT_FALSE(Parse({"--help"}).error.has_value());
  EXPECT_NE(UsageText().find("--ttc-histograms"), std::string::npos);
}

// --- integration: every strategy, multi-threaded, invariants after ---

class IntegrationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(IntegrationTest, ConcurrentMixedWorkloadPreservesInvariants) {
  BenchConfig config;
  config.strategy = GetParam();
  config.scale = "tiny";
  config.threads = 4;
  config.length_seconds = 1.5;
  config.workload = WorkloadType::kWriteDominated;  // maximum stress
  config.seed = 555;

  BenchmarkRunner runner(config);
  const BenchResult result = runner.Run();
  EXPECT_GT(result.total_success, 0);
  const InvariantReport report = CheckInvariants(runner.data());
  EXPECT_TRUE(report.ok()) << GetParam() << ": "
                           << (report.violations.empty() ? "" : report.violations[0]);
  if (Stm* stm = runner.strategy().stm()) {
    // One RunAtomically per started operation, and every operation ends in
    // exactly one commit (failures are committed outcomes too).
    const auto view = stm->stats().Snapshot();
    EXPECT_EQ(view.starts, result.total_started);
    EXPECT_EQ(view.commits, result.total_started);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, IntegrationTest,
                         ::testing::Values("coarse", "medium", "fine", "tl2", "tinystm", "norec", "astm"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(IntegrationTest2, ReadDominatedWithLongTraversals) {
  for (const char* name : {"medium", "tl2"}) {
    BenchConfig config;
    config.strategy = name;
    config.scale = "tiny";
    config.threads = 3;
    config.length_seconds = 1.0;
    config.workload = WorkloadType::kReadDominated;
    BenchmarkRunner runner(config);
    const BenchResult result = runner.Run();
    EXPECT_GT(result.total_success, 0) << name;
    EXPECT_TRUE(CheckInvariants(runner.data()).ok()) << name;
  }
}

TEST(IntegrationTest2, MaxOpsCapIsRespected) {
  BenchConfig config;
  config.strategy = "coarse";
  config.scale = "tiny";
  config.threads = 2;
  config.length_seconds = 3600.0;
  config.max_operations = 100;
  BenchmarkRunner runner(config);
  const BenchResult result = runner.Run();
  EXPECT_LE(result.total_started, 100 + config.threads);  // fetch_add slack
  EXPECT_GE(result.total_started, 100);
}

// Every run leaves its driving thread online: a one-worker run works on it,
// and every run ends with a Quiesce. A later multi-worker run in the same
// process must still reclaim while its workers retire.
TEST(IntegrationTest2, MultiWorkerRunAfterAOneWorkerRunStillReclaims) {
  BenchConfig config;
  config.strategy = "tl2";
  config.scale = "small";
  config.workload = WorkloadType::kWriteDominated;
  // A long traversal near the end of a run legitimately leaves up to ~140k
  // objects pending.
  config.long_traversals = false;
  config.length_seconds = 3600.0;
  config.max_operations = 4000;
  config.threads = 1;
  BenchmarkRunner(config).Run();

  config.threads = 2;
  BenchmarkRunner runner(config);
  const uint64_t before = EbrDomain::Global().global_epoch();
  runner.Run();
  EXPECT_GT(EbrDomain::Global().global_epoch() - before, 2u);
  EXPECT_LT(EbrDomain::Global().PendingCount(), 2000);
}

// --- report formatting ---

TEST(ReportTest, ContainsAllAppendixASections) {
  BenchConfig config;
  config.strategy = "tl2";
  config.scale = "tiny";
  config.threads = 2;
  config.length_seconds = 0.3;
  config.ttc_histograms = true;
  BenchmarkRunner runner(config);
  const BenchResult result = runner.Run();

  std::ostringstream out;
  PrintReport(out, runner, result);
  const std::string text = out.str();
  EXPECT_NE(text.find("== Benchmark parameters =="), std::string::npos);
  EXPECT_NE(text.find("== TTC histograms =="), std::string::npos);
  EXPECT_NE(text.find("TTC histogram for"), std::string::npos);
  EXPECT_NE(text.find("== Detailed results =="), std::string::npos);
  EXPECT_NE(text.find("== Sample errors =="), std::string::npos);
  EXPECT_NE(text.find("total sample errors: E = "), std::string::npos);
  EXPECT_NE(text.find("== Summary results =="), std::string::npos);
  EXPECT_NE(text.find("long traversals"), std::string::npos);
  EXPECT_NE(text.find("total throughput"), std::string::npos);
  EXPECT_NE(text.find("== STM statistics =="), std::string::npos);
}

TEST(ReportTest, CsvHasMetadataRowsAndTotal) {
  BenchConfig config;
  config.strategy = "tinystm";
  config.scale = "tiny";
  config.threads = 1;
  config.length_seconds = 0.2;
  BenchmarkRunner runner(config);
  const BenchResult result = runner.Run();
  std::ostringstream out;
  WriteCsv(out, runner, result);
  const std::string text = out.str();
  EXPECT_NE(text.find("# schema=3"), std::string::npos);
  EXPECT_NE(text.find("# strategy=tinystm"), std::string::npos);
  EXPECT_NE(text.find("# throughput_success="), std::string::npos);
  EXPECT_NE(text.find("# stm_commits="), std::string::npos);
  EXPECT_NE(text.find("# stm_aborts_read_validation="), std::string::npos);
  // Schema 2 keeps the schema-1 column prefix and appends p99.9 and the
  // started-throughput column.
  EXPECT_NE(text.find("op,category,read_only,ratio,completed,failed,max_ms,mean_ms,p50_ms,"
                      "p90_ms,p99_ms,p999_ms,started_per_s"),
            std::string::npos);
  EXPECT_NE(text.find("\nT1,"), std::string::npos);
  EXPECT_NE(text.find("\nTOTAL,"), std::string::npos);
  // Plain runs carry no per-phase section.
  EXPECT_EQ(text.find("\nphase,"), std::string::npos);
}

TEST(ReportTest, ScenarioRunReportsEveryPhaseInAllFormats) {
  BenchConfig config;
  config.strategy = "tl2";
  config.scale = "tiny";
  config.threads = 2;
  config.length_seconds = 0.6;
  config.scenario = FindBuiltinScenario("hotspot");
  ASSERT_TRUE(config.scenario.has_value());
  BenchmarkRunner runner(config);
  const BenchResult result = runner.Run();
  ASSERT_EQ(result.phases.size(), 2u);

  std::ostringstream report;
  PrintReport(report, runner, result);
  const std::string text = report.str();
  EXPECT_NE(text.find("scenario:            hotspot"), std::string::npos);
  EXPECT_NE(text.find("== Phase results =="), std::string::npos);
  EXPECT_NE(text.find("phase uniform"), std::string::npos);
  EXPECT_NE(text.find("phase hot"), std::string::npos);
  EXPECT_NE(text.find("zipf=0.99"), std::string::npos);
  EXPECT_NE(text.find("== Summary results =="), std::string::npos);  // combined total

  std::ostringstream csv;
  WriteCsv(csv, runner, result);
  const std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find("# scenario=hotspot"), std::string::npos);
  EXPECT_NE(csv_text.find("phase,arrival,threads,read_fraction,zipf_theta"), std::string::npos);
  EXPECT_NE(csv_text.find("\nuniform,closed,"), std::string::npos);
  EXPECT_NE(csv_text.find("\nhot,closed,"), std::string::npos);

  std::ostringstream json;
  WriteJson(json, runner, result);
  const std::string json_text = json.str();
  EXPECT_NE(json_text.find("\"scenario\": \"hotspot\""), std::string::npos);
  EXPECT_NE(json_text.find("\"phases\": ["), std::string::npos);
  EXPECT_NE(json_text.find("\"queue_delay_ms\""), std::string::npos);
  EXPECT_NE(json_text.find("\"p999_ms\""), std::string::npos);
}

TEST(WorkloadOverrideTest, CustomReadFractionShiftsTheMix) {
  BenchConfig config;
  config.strategy = "coarse";
  config.scale = "tiny";
  config.threads = 1;
  config.length_seconds = 3600.0;
  config.max_operations = 4000;
  config.read_fraction = 1.0;  // pure read-only mix
  BenchmarkRunner runner(config);
  const BenchResult result = runner.Run();
  const auto& ops = runner.registry().all();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i]->read_only()) {
      EXPECT_EQ(result.per_op[i].started(), 0) << ops[i]->name();
    }
  }
  // A 100%-read run must leave the structure checksum untouched.
  EXPECT_TRUE(CheckInvariants(runner.data()).ok());
}

TEST(ReportTest, HistogramsOmittedByDefault) {
  BenchConfig config;
  config.strategy = "coarse";
  config.scale = "tiny";
  config.threads = 1;
  config.length_seconds = 0.2;
  BenchmarkRunner runner(config);
  const BenchResult result = runner.Run();
  std::ostringstream out;
  PrintReport(out, runner, result);
  EXPECT_EQ(out.str().find("TTC histogram for"), std::string::npos);
  EXPECT_EQ(out.str().find("STM statistics"), std::string::npos);
}

}  // namespace
}  // namespace sb7
