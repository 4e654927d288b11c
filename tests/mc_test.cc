// Tests for the deterministic interleaving explorer (src/mc/): scheduler
// determinism, sleep-set reduction soundness, the pinned historical-race
// regressions with trace round-trip replay, and bounded STM exploration.
// Compiled only in SB7_MC builds (see CMakeLists.txt).

#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/ebr/ebr.h"
#include "src/mc/explorer.h"
#include "src/mc/litmus.h"
#include "src/mc/scheduler.h"
#include "src/mc/trace_io.h"
#include "src/stm/field.h"

namespace sb7::mc {
namespace {

ExploreOptions SmokeOptions() {
  ExploreOptions options;
  options.max_schedules = 500;
  options.max_steps = 400;
  return options;
}

const Litmus& Registered(const char* name) {
  const Litmus* litmus = FindLitmus(name);
  EXPECT_NE(litmus, nullptr) << name;
  return *litmus;
}

TEST(McExplorerTest, ExplorationIsDeterministic) {
  // Same litmus, same options: the full sequence of explored schedules must
  // be identical run to run — that is what makes traces replayable and CI
  // failures reproducible.
  for (const char* name : {"astm-priority-race", "dpor-2x2", "tracer-tls-uaf"}) {
    const Litmus& litmus = Registered(name);
    const ExploreResult first = Explore(litmus, SmokeOptions());
    const ExploreResult second = Explore(litmus, SmokeOptions());
    EXPECT_EQ(first.schedules, second.schedules) << name;
    EXPECT_EQ(first.failures, second.failures) << name;
    EXPECT_EQ(first.schedule_tids, second.schedule_tids) << name;
  }
}

// A 2-thread / 2-variable message-passing litmus whose reachable outcomes
// are known exactly: T0 stores x then y; T1 loads x then y. The reader can
// observe (0,0), (1,0), (1,1) — and (0,1) by reading x before the writer
// runs and y after. Sleep sets must preserve this *outcome set* while
// exploring fewer (or equal) schedules.
struct MpCells {
  sp::AtomicU64 x{0}, y{0};
  uint64_t rx = 0, ry = 0;
};

Litmus MakeOutcomeLitmus(const std::shared_ptr<MpCells>& cells,
                         const std::shared_ptr<std::set<std::pair<uint64_t, uint64_t>>>&
                             outcomes) {
  Litmus litmus;
  litmus.name = "test-mp-outcomes";
  litmus.setup = [cells] {
    // mo: relaxed — single-threaded reset from the control thread.
    cells->x.store(0, std::memory_order_relaxed);
    cells->y.store(0, std::memory_order_relaxed);
    cells->rx = cells->ry = 0;
  };
  litmus.bodies = {
      [cells] {
        cells->x.store(1, std::memory_order_relaxed);
        cells->y.store(1, std::memory_order_relaxed);
      },
      [cells] {
        cells->rx = cells->x.load(std::memory_order_relaxed);
        cells->ry = cells->y.load(std::memory_order_relaxed);
      },
  };
  litmus.check = [cells, outcomes]() {
    outcomes->emplace(cells->rx, cells->ry);
    return std::string();
  };
  return litmus;
}

TEST(McExplorerTest, SleepSetReductionIsSound) {
  auto cells = std::make_shared<MpCells>();
  auto full_outcomes = std::make_shared<std::set<std::pair<uint64_t, uint64_t>>>();
  auto reduced_outcomes = std::make_shared<std::set<std::pair<uint64_t, uint64_t>>>();

  ExploreOptions full = SmokeOptions();
  full.sleep_sets = false;
  const ExploreResult unreduced =
      Explore(MakeOutcomeLitmus(cells, full_outcomes), full);

  const ExploreResult reduced =
      Explore(MakeOutcomeLitmus(cells, reduced_outcomes), SmokeOptions());

  EXPECT_FALSE(unreduced.budget_exhausted);
  EXPECT_FALSE(reduced.budget_exhausted);
  // Soundness: reduction loses no observable outcome.
  EXPECT_EQ(*reduced_outcomes, *full_outcomes);
  // All four message-passing outcomes are reachable and must be found.
  const std::set<std::pair<uint64_t, uint64_t>> expected = {
      {0, 0}, {1, 0}, {1, 1}, {0, 1}};
  EXPECT_EQ(*full_outcomes, expected);
  // Effectiveness: the reduced run does no more work than the full one.
  EXPECT_LE(reduced.schedules, unreduced.schedules);
}

TEST(McExplorerTest, FirstFailingScheduleIsReportedBeforeTheNextOneRuns) {
  // sb7-mc prints its verdict and writes the trace from this callback, so a
  // run cut off later keeps what it found: the report must come right after
  // the failing schedule, before the next one starts, and only once.
  Litmus litmus = Registered("astm-priority-race");
  auto setups = std::make_shared<uint64_t>(0);
  litmus.setup = [setups, inner = litmus.setup] {
    ++*setups;
    if (inner) {
      inner();
    }
  };
  int calls = 0;
  uint64_t reported_at = 0;
  uint64_t setups_at_report = 0;
  std::vector<int> reported_tids;
  const ExploreResult result =
      Explore(litmus, SmokeOptions(), [&](const ScheduleTrace& failure, uint64_t schedule) {
        ++calls;
        reported_at = schedule;
        setups_at_report = *setups;
        for (const ScheduleStep& step : failure.steps) {
          reported_tids.push_back(step.tid);
        }
      });
  ASSERT_TRUE(result.first_failure.has_value());
  EXPECT_EQ(calls, 1);
  ASSERT_GE(reported_at, 1u);
  EXPECT_LT(reported_at, result.schedules);  // exploration went on after it
  EXPECT_EQ(setups_at_report, reported_at);  // no later schedule had started
  EXPECT_EQ(result.schedule_tids[reported_at - 1], reported_tids);

  calls = 0;
  Explore(Registered("astm-priority-fixed"), SmokeOptions(),
          [&](const ScheduleTrace&, uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(McExplorerTest, SwitchBoundPrunesPreemptiveSchedules) {
  const Litmus& litmus = Registered("dpor-2x2");
  ExploreOptions unbounded = SmokeOptions();
  unbounded.sleep_sets = false;
  ExploreOptions bounded = unbounded;
  bounded.switch_bound = 0;
  const ExploreResult all = Explore(litmus, unbounded);
  const ExploreResult few = Explore(litmus, bounded);
  EXPECT_GE(few.schedules, 1u);
  EXPECT_LT(few.schedules, all.schedules);
  EXPECT_EQ(few.failures, 0u);
}

TEST(McRegressionTest, AstmPriorityRaceIsPinned) {
  // The historical bug: exploration must *deterministically* find the racy
  // pair — no luck of OS timing involved.
  const ExploreResult racy = Explore(Registered("astm-priority-race"), SmokeOptions());
  EXPECT_GT(racy.failures, 0u);
  ASSERT_TRUE(racy.first_failure.has_value());
  EXPECT_EQ(racy.first_failure->violation.kind, Violation::Kind::kDataRace)
      << racy.first_failure->violation.detail;

  // And the shipped fix must explore clean, exhaustively.
  const ExploreResult fixed = Explore(Registered("astm-priority-fixed"), SmokeOptions());
  EXPECT_EQ(fixed.failures, 0u);
  EXPECT_FALSE(fixed.budget_exhausted);
}

TEST(McRegressionTest, TracerTlsUseAfterFreeIsPinned) {
  const ExploreResult racy = Explore(Registered("tracer-tls-uaf"), SmokeOptions());
  EXPECT_GT(racy.failures, 0u);
  ASSERT_TRUE(racy.first_failure.has_value());
  EXPECT_EQ(racy.first_failure->violation.kind, Violation::Kind::kUseAfterFree)
      << racy.first_failure->violation.detail;

  const ExploreResult fixed = Explore(Registered("tracer-tls-fixed"), SmokeOptions());
  EXPECT_EQ(fixed.failures, 0u);
  EXPECT_FALSE(fixed.budget_exhausted);
}

TEST(McRegressionTest, FailingScheduleRoundTripsThroughTraceFile) {
  const Litmus& litmus = Registered("astm-priority-race");
  const ExploreResult result = Explore(litmus, SmokeOptions());
  ASSERT_TRUE(result.first_failure.has_value());

  // Serialize -> file -> parse.
  const std::string path = testing::TempDir() + "/astm_priority_race.trace";
  std::string error;
  ASSERT_TRUE(WriteTraceFile(path, *result.first_failure, litmus.num_threads(), &error))
      << error;
  const auto parsed = ReadTraceFile(path, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->litmus, litmus.name);
  EXPECT_EQ(parsed->threads, litmus.num_threads());
  EXPECT_EQ(parsed->steps.size(), result.first_failure->steps.size());

  // Replay must follow the recorded schedule exactly and rediscover the
  // same class of violation.
  std::string divergence;
  const ScheduleTrace replayed = Replay(litmus, parsed->steps, &divergence);
  EXPECT_TRUE(divergence.empty()) << divergence;
  EXPECT_EQ(replayed.violation.kind, Violation::Kind::kDataRace)
      << replayed.violation.detail;
}

TEST(McRegressionTest, TraceParserRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(ParseTrace("not a trace\n", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(
      ParseTrace("sb7-mc-trace v1\nlitmus x\nstep 1 tid 0 kind load addr a\n", &error)
          .has_value());  // step index must start at 0
  EXPECT_FALSE(ParseTrace("sb7-mc-trace v1\nthreads 2\n", &error).has_value());
}

TEST(McStmTest, BoundedExplorationOfRealBackendsStaysOpaque) {
  // Bounded sweep through real transactions: every explored schedule's
  // history must pass the opacity checker and land the expected end state.
  // The schedule space is far larger than the budget; budget exhaustion is
  // fine — zero failures within the budget is the gate.
  ExploreOptions options;
  options.max_schedules = 60;
  options.max_steps = 600;
  for (const char* name : {"stm-lost-update-tl2", "stm-lost-update-norec",
                           "stm-snapshot-mvstm", "stm-increment-pair-tinystm",
                           "stm-write-skew-astm"}) {
    const ExploreResult result = Explore(Registered(name), options);
    EXPECT_EQ(result.failures, 0u)
        << name << ": "
        << (result.first_failure
                ? (result.first_failure->violation
                       ? result.first_failure->violation.detail
                       : result.first_failure->check_failure)
                : std::string("?"));
    EXPECT_GT(result.schedules, 0u) << name;
  }
}

TEST(McStmTest, AbortedWritesAndCapturedObjectsStayOpaqueOnEveryBackend) {
  // stm-aborted-write: a reader never accepts a value whose writer aborted.
  // tinystm did, while it released an aborted attempt's locks at their old
  // words; the window takes four preemptions. stm-capture-publish: a pair
  // built and set inside an attempt, served without the STM, is seen whole
  // by any reader that sees its link. Both windows lie within the first 40
  // steps, and at that step bound the search is exhaustive in at most a
  // few thousand schedules; past it, spinning readers multiply the
  // schedules without reaching a new window. With the old tinystm release,
  // the aborted-write search failed at schedule 224 of 228.
  // stm-snapshot-reversed: a read-only reader of y, then x, never commits a
  // half-flushed x=y=1 pair. astm did, while it flushed and released its
  // write set one unit at a time; that search failed at schedule 745.
  ExploreOptions options;
  options.max_schedules = 5000;
  options.max_steps = 40;
  for (const char* backend : {"tl2", "tinystm", "norec", "astm", "mvstm"}) {
    for (const std::string prefix :
         {"stm-aborted-write-", "stm-capture-publish-", "stm-snapshot-reversed-"}) {
      const std::string name = prefix + backend;
      const ExploreResult result = Explore(Registered(name.c_str()), options);
      EXPECT_EQ(result.failures, 0u)
          << name << ": "
          << (result.first_failure
                  ? (result.first_failure->violation
                         ? result.first_failure->violation.detail
                         : result.first_failure->check_failure)
                  : std::string("?"));
      EXPECT_GT(result.schedules, 0u) << name;
      EXPECT_FALSE(result.budget_exhausted) << name;
    }
  }
}

TEST(McStmTest, GroupCommitLitmusesStayOpaqueAndWriteAhead) {
  // The group-commit sequencer under the explorer: every schedule must be
  // opaque, every published commit must already be in the redo log, and the
  // log must frame-check (src/mc/litmus.cc's GroupCommitFailure gate). The
  // spin/yield coordination makes the schedule space huge; zero failures
  // within the budget is the gate.
  ExploreOptions options;
  options.max_schedules = 60;
  options.max_steps = 2000;
  for (const char* name : {"mvstm-group-commit", "mvstm-group-commit-snapshot"}) {
    const ExploreResult result = Explore(Registered(name), options);
    EXPECT_EQ(result.failures, 0u)
        << name << ": "
        << (result.first_failure
                ? (result.first_failure->violation
                       ? result.first_failure->violation.detail
                       : result.first_failure->check_failure)
                : std::string("?"));
    EXPECT_GT(result.schedules, 0u) << name;
  }
}

// Parks the first transactional read of a thread that set tls_park_first_read
// until Release(), so that thread's snapshot straddles whatever commits
// meanwhile.
thread_local bool tls_park_first_read = false;

class ParkFirstRead final : public TxObserver {
 public:
  void OnTxBegin(bool) noexcept override {}
  void OnTxCommit() noexcept override {}
  void OnTxAbort(const TxAbortInfo&) noexcept override {}
  void OnTxRead(const TxFieldBase&, uint64_t) noexcept override {
    if (!tls_park_first_read) {
      return;
    }
    tls_park_first_read = false;
    std::unique_lock<std::mutex> lock(mu_);
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  void AwaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

TEST(McStmTest, SetupsResetTheCellsThroughTheStm) {
  // An execution's setup resets x and y for the next one. A raw store is
  // invisible to mvstm's version chains, so a snapshot straddling the next
  // commit walked a chain back to the previous execution's 1: the reader
  // below read x == 0 before the writer committed and y == 1 after. Run
  // outside the explorer, on plain threads: nothing hits a sync point.
  for (const char* name : {"stm-snapshot-mvstm", "mvstm-group-commit-snapshot"}) {
    const Litmus& litmus = Registered(name);
    ASSERT_EQ(litmus.num_threads(), 2) << name;  // writer, snapshot reader
    litmus.setup();
    litmus.bodies[0]();  // x = y = 1
    EbrDomain::Global().Offline();
    EXPECT_EQ(litmus.check(), "") << name;

    litmus.setup();
    ParkFirstRead park;
    ASSERT_TRUE(InstallTxObserver(&park));
    std::thread reader([&] {
      tls_park_first_read = true;
      litmus.bodies[1]();
      EbrDomain::Global().Offline();
    });
    park.AwaitParked();  // the reader's snapshot has read x
    std::thread writer([&] {
      litmus.bodies[0]();
      EbrDomain::Global().Offline();
    });
    writer.join();
    park.Release();
    reader.join();
    ASSERT_TRUE(RemoveTxObserver(&park));
    EXPECT_EQ(litmus.check(), "") << name;
  }
}

// Records how many observers are installed at every commit it sees.
class ObserverCountAtCommit final : public TxObserver {
 public:
  void OnTxBegin(bool) noexcept override {}
  void OnTxCommit() noexcept override {
    counts.push_back(internal::g_tx_observer_count.load());
  }
  void OnTxAbort(const TxAbortInfo&) noexcept override {}

  std::vector<int> counts;
};

TEST(McStmTest, SetupsRecordTheirResets) {
  // A setup installs its history recorder before its reset transactions
  // commit, so CheckOpacity grounds x and y on the values the reset wrote.
  // A recorder installed after the reset let the checker ground them on
  // their first read and accept a stale starting value. A probe installed
  // before setup() must see two observers at every reset's commit: itself
  // and the recorder. Run outside the explorer, bodies in turn.
  int setups = 0;
  for (const Litmus& litmus : AllLitmuses()) {
    if (litmus.name.rfind("stm-", 0) != 0 && litmus.name.rfind("mvstm-group-commit", 0) != 0) {
      continue;
    }
    ++setups;
    ObserverCountAtCommit probe;
    ASSERT_TRUE(InstallTxObserver(&probe));
    litmus.setup();
    ASSERT_TRUE(RemoveTxObserver(&probe));
    ASSERT_FALSE(probe.counts.empty()) << litmus.name;
    for (const int count : probe.counts) {
      EXPECT_EQ(count, 2) << litmus.name;
    }
    for (const auto& body : litmus.bodies) {
      body();
    }
    EbrDomain::Global().Offline();
    EXPECT_EQ(litmus.check(), "") << litmus.name;
  }
  EXPECT_EQ(setups, 37);  // seven litmus per backend, two for group commit
}

}  // namespace
}  // namespace sb7::mc
