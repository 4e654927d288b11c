// Self-tests of the load generator: its percentile and per-layer
// arithmetic, and short real runs that exercise the output checks.

#include "loadgen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>

namespace sb7::loadgen {
namespace {

TEST(Percentiles, NearestRank) {
  std::vector<int64_t> values(1000);
  std::iota(values.begin(), values.end(), 1);
  std::reverse(values.begin(), values.end());
  EXPECT_EQ(Quantile(values, 0.50), 500);
  EXPECT_EQ(Quantile(values, 0.99), 990);  // 10 samples lie beyond it
  EXPECT_EQ(Quantile(values, 1.00), 1000);
  EXPECT_EQ(Quantile(values, 0.0), 1);
}

TEST(Percentiles, SmallAndEmptySamples) {
  EXPECT_EQ(Quantile({}, 0.5), 0);
  EXPECT_EQ(Quantile({40, 10, 30, 20}, 0.50), 20);  // lower median of an even count
  EXPECT_EQ(Quantile({40, 10, 30, 20}, 0.99), 40);
  EXPECT_EQ(Quantile({7}, 0.99), 7);
}

TEST(Percentiles, TailNeedsTenSamplesBeyond) {
  EXPECT_TRUE(HasTailSamples(1000, 0.99));
  EXPECT_FALSE(HasTailSamples(999, 0.99));
  EXPECT_TRUE(HasTailSamples(20, 0.5));
  EXPECT_FALSE(HasTailSamples(19, 0.5));
  EXPECT_FALSE(HasTailSamples(0, 0.99));
}

double Layer(const RunResult& result, const std::string& name) {
  for (const auto& [key, value] : LayerReport(result)) {
    if (key == name) {
      return value;
    }
  }
  ADD_FAILURE() << "no per-layer figure " << name;
  return 0;
}

TEST(LayerArithmetic, SplitsExecuteTimeIntoBodyOverheadAndWaste) {
  RunResult result;
  LayerSums& sums = result.sums;
  sums.ops = 4;
  sums.spec_failed = 1;
  sums.execute_ns = 40'000;
  sums.attempts = 6;
  sums.run_ns = 30'000;
  sums.committed_run_ns = 20'000;
  sums.quiesce_calls = 5;
  sums.quiesce_ns = 10'000;
  result.limbo_begin = 10;
  result.limbo_end = 18;
  result.redo.groups = 2;
  result.redo.members = 4;
  result.redo.fsyncs = 3;
  result.redo.bytes = 400;
  EXPECT_DOUBLE_EQ(Layer(result, "ops.body_us"), 5.0);
  EXPECT_DOUBLE_EQ(Layer(result, "ops.spec_failed_frac"), 0.25);
  EXPECT_DOUBLE_EQ(Layer(result, "strategy.overhead_us"), 2.5);
  EXPECT_DOUBLE_EQ(Layer(result, "strategy.overhead_share"), 0.25);
  EXPECT_DOUBLE_EQ(Layer(result, "stm.attempts_per_op"), 1.5);
  EXPECT_DOUBLE_EQ(Layer(result, "stm.wasted_share"), 0.25);
  EXPECT_DOUBLE_EQ(Layer(result, "ebr.quiesce_us"), 2.0);
  EXPECT_DOUBLE_EQ(Layer(result, "ebr.limbo_growth_per_kop"), 2000.0);
  EXPECT_DOUBLE_EQ(Layer(result, "redo.members_per_group"), 2.0);
  EXPECT_DOUBLE_EQ(Layer(result, "redo.fsyncs_per_commit"), 0.75);
  EXPECT_DOUBLE_EQ(Layer(result, "redo.bytes_per_commit"), 100.0);
  // Nothing executed: every figure is 0, never a division by zero.
  for (const auto& [name, value] : LayerReport(RunResult{})) {
    EXPECT_EQ(value, 0.0) << name;
  }
}

RunConfig Tiny(const std::string& backend, int workers, int64_t ops) {
  RunConfig config;
  config.backend = backend;
  config.scale = "tiny";
  config.read_fraction = 0.1;
  config.long_traversals = false;
  config.workers = workers;
  config.seed = 11;
  config.max_operations = ops;
  return config;
}

TEST(LayerArithmetic, TracedRunsStayWithinTheirRanges) {
  for (const std::string backend : {"coarse", "tl2", "mvstm"}) {
    RunConfig config = Tiny(backend, 2, 2000);
    config.traced = true;
    const RunResult result = RunClosedLoop(config);
    SCOPED_TRACE(backend);
    EXPECT_EQ(result.sums.ops, 2000);
    EXPECT_EQ(result.latency_samples, 2000);
    EXPECT_EQ(result.sums.other_failed, 0);
    EXPECT_TRUE(result.invariants_ok) << result.first_violation;
    EXPECT_GE(result.sums.execute_ns, result.sums.run_ns);
    EXPECT_GE(result.sums.run_ns, result.sums.committed_run_ns);
    EXPECT_GT(Layer(result, "ops.body_us"), 0);
    EXPECT_GE(Layer(result, "strategy.overhead_us"), 0);
    EXPECT_GE(Layer(result, "stm.attempts_per_op"), 1);
    EXPECT_GT(Layer(result, "ebr.quiesce_us"), 0);
    for (const char* share : {"ops.spec_failed_frac", "strategy.overhead_share",
                              "stm.wasted_share"}) {
      EXPECT_GE(Layer(result, share), 0) << share;
      EXPECT_LE(Layer(result, share), 1) << share;
    }
    if (backend == "coarse") {
      EXPECT_DOUBLE_EQ(Layer(result, "stm.attempts_per_op"), 1.0);
      EXPECT_DOUBLE_EQ(Layer(result, "stm.reads_per_op"), 0.0);
    } else {
      EXPECT_GT(Layer(result, "stm.reads_per_op"), 0);
    }
    EXPECT_LE(result.p50_ms, result.p99_ms);
  }
}

TEST(LayerArithmetic, UntracedRunsLeaveTracedFiguresAtZero) {
  const RunResult result = RunClosedLoop(Tiny("tl2", 1, 500));
  EXPECT_EQ(result.sums.attempts, 0);
  EXPECT_EQ(result.sums.quiesce_calls, 0);
  EXPECT_DOUBLE_EQ(Layer(result, "stm.attempts_per_op"), 0.0);
  EXPECT_GT(Layer(result, "stm.reads_per_op"), 0);
}

TEST(OutputChecks, SingleWorkerBackendsAgree) {
  const RunResult coarse = RunClosedLoop(Tiny("coarse", 1, 1500));
  for (const std::string backend : {"tl2", "mvstm"}) {
    const RunResult other = RunClosedLoop(Tiny(backend, 1, 1500));
    EXPECT_EQ(other.results_hash, coarse.results_hash) << backend;
    EXPECT_EQ(other.fingerprint, coarse.fingerprint) << backend;
  }
  EXPECT_NE(coarse.results_hash, 0u);
}

TEST(OutputChecks, TinyDurableRunReplaysFromItsLog) {
  // Recovery re-executes each logged commit by its op index, which the
  // generator must set around every Execute (SetTxOpContext).
  RunConfig config = Tiny("mvstm", 2, 1500);
  config.redo_log_path = "loadgen_test_redo.log";
  const RunResult result = RunClosedLoop(config);
  std::remove(config.redo_log_path.c_str());
  EXPECT_TRUE(result.invariants_ok) << result.first_violation;
  EXPECT_GT(result.setup_seconds, 0);
  EXPECT_GT(result.redo.members, 0u);
  EXPECT_GE(result.redo.fsyncs, result.redo.groups);
  EXPECT_TRUE(result.recovery.ran);
  EXPECT_TRUE(result.recovery.ok) << result.recovery.error;
  EXPECT_EQ(result.recovery.ops_replayed, static_cast<int64_t>(result.redo.members));
  EXPECT_EQ(result.recovery.fingerprint, result.fingerprint);
  EXPECT_GT(Layer(result, "redo.members_per_group"), 0);
}

}  // namespace
}  // namespace sb7::loadgen
