// Tests for the tracing & conflict-attribution subsystem (src/trace/) and
// the multi-observer seam it rides on:
//   * EventRing: drop-new wraparound with drop counting, capacity rounding,
//     a concurrent producer racing the drain;
//   * the TxObserver registry: install/remove semantics (null, duplicate,
//     full), compaction, dispatch order;
//   * Tracer: lifecycle sampling, per-stream timestamp monotonicity,
//     deterministic abort attribution through the conflict table, latency
//     decomposition, the timing-flag toggle;
//   * ConflictTable: last-writer pairing, windowed deltas, and the
//     empty-snapshot summary (a scenario phase the op cap skipped);
//   * oracle + tracer composing on the same run with outputs identical to
//     each running alone;
//   * the Chrome trace-event JSON golden: key set, colors, span pairing and
//     orphan skipping, pinned against the in-tree JSON parser;
//   * StmStats X-macro: Subtract/Add cover every counter exactly once.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/check/history.h"
#include "src/perf/json.h"
#include "src/stm/field.h"
#include "src/stm/lock_table.h"
#include "src/stm/stm.h"
#include "src/stm/stm_factory.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/conflict.h"
#include "src/trace/ring.h"
#include "src/trace/tracer.h"

namespace sb7 {
namespace {

using trace::ConflictOpSlot;
using trace::ConflictSummary;
using trace::ConflictTable;
using trace::EventKind;
using trace::EventRing;
using trace::SummarizeConflicts;
using trace::TraceEvent;
using trace::Tracer;
using trace::TraceOptions;

class Cell : public TmObject {
 public:
  explicit Cell(int64_t initial = 0) : value(unit(), initial) {}
  TxField<int64_t> value;
};

TraceEvent MakeEvent(int64_t nanos, EventKind kind, uint32_t arg,
                     sb7::AbortCause cause = sb7::AbortCause::kUnknown,
                     int16_t op = -1) {
  TraceEvent event;
  event.nanos = nanos;
  event.kind = kind;
  event.cause = cause;
  event.op = op;
  event.arg = arg;
  return event;
}

// ------------------------------------------------------------- EventRing --

TEST(EventRingTest, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(EventRing(1).capacity(), 1u);
  EXPECT_EQ(EventRing(2).capacity(), 2u);
  EXPECT_EQ(EventRing(5).capacity(), 8u);
  EXPECT_EQ(EventRing(64).capacity(), 64u);
  EXPECT_EQ(EventRing(65).capacity(), 128u);
}

TEST(EventRingTest, FullRingDropsNewEventsAndCountsThem) {
  EventRing ring(8);
  for (uint32_t i = 0; i < 8; ++i) {
    ring.Push(MakeEvent(i, EventKind::kBegin, i));
  }
  // Overflow: the incoming events are dropped, the resident ones survive.
  ring.Push(MakeEvent(100, EventKind::kCommit, 100));
  ring.Push(MakeEvent(101, EventKind::kCommit, 101));
  EXPECT_EQ(ring.dropped(), 2);

  std::vector<TraceEvent> events;
  EXPECT_EQ(ring.Drain(events), 8u);
  ASSERT_EQ(events.size(), 8u);
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(events[i].arg, i) << "oldest events must survive overflow";
    EXPECT_EQ(events[i].kind, EventKind::kBegin);
  }

  // Draining hands the slots back: pushing works again, the drop count is
  // cumulative.
  ring.Push(MakeEvent(200, EventKind::kAbort, 200));
  events.clear();
  EXPECT_EQ(ring.Drain(events), 1u);
  EXPECT_EQ(events[0].arg, 200u);
  EXPECT_EQ(ring.dropped(), 2);
}

TEST(EventRingTest, ConcurrentProducerAndDrainLoseNothingButDrops) {
  EventRing ring(64);
  constexpr uint32_t kEvents = 200000;
  std::atomic<bool> done{false};
  std::thread producer([&ring, &done] {
    for (uint32_t i = 0; i < kEvents; ++i) {
      ring.Push(MakeEvent(i, EventKind::kBegin, i));
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<TraceEvent> events;
  while (!done.load(std::memory_order_acquire)) {
    ring.Drain(events);
  }
  producer.join();
  ring.Drain(events);  // sweep anything published after the last pass

  EXPECT_EQ(events.size() + static_cast<size_t>(ring.dropped()), kEvents);
  // Drop-new preserves order: the survivors' args are strictly increasing,
  // so no event was torn, duplicated, or reordered.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].arg, events[i].arg);
  }
}

// -------------------------------------------------- TxObserver registry --

// Minimal observer: counts begin callbacks, identifies itself for dispatch
// order checks.
class CountingObserver : public TxObserver {
 public:
  explicit CountingObserver(std::vector<const CountingObserver*>* order = nullptr)
      : order_(order) {}
  void OnTxBegin(bool /*read_only*/) noexcept override {
    ++begins_;
    if (order_ != nullptr) {
      order_->push_back(this);
    }
  }
  void OnTxCommit() noexcept override {}
  void OnTxAbort(const TxAbortInfo& /*info*/) noexcept override {}
  int begins() const { return begins_; }

 private:
  std::vector<const CountingObserver*>* order_;
  int begins_ = 0;
};

TEST(TxObserverRegistryTest, InstallRejectsNullDuplicateAndOverflow) {
  ASSERT_FALSE(HasTxObservers()) << "registry must start empty";
  EXPECT_FALSE(InstallTxObserver(nullptr));

  CountingObserver observers[kMaxTxObservers + 1];
  for (int i = 0; i < kMaxTxObservers; ++i) {
    EXPECT_TRUE(InstallTxObserver(&observers[i])) << i;
  }
  EXPECT_FALSE(InstallTxObserver(&observers[0])) << "duplicate must be rejected";
  EXPECT_FALSE(InstallTxObserver(&observers[kMaxTxObservers])) << "registry is full";
  EXPECT_TRUE(HasTxObservers());

  for (int i = 0; i < kMaxTxObservers; ++i) {
    EXPECT_TRUE(RemoveTxObserver(&observers[i])) << i;
  }
  EXPECT_FALSE(RemoveTxObserver(&observers[0])) << "already removed";
  EXPECT_FALSE(HasTxObservers());
}

TEST(TxObserverRegistryTest, RemoveCompactsAndPreservesDispatchOrder) {
  std::vector<const CountingObserver*> order;
  CountingObserver a(&order);
  CountingObserver b(&order);
  CountingObserver c(&order);
  ASSERT_TRUE(InstallTxObserver(&a));
  ASSERT_TRUE(InstallTxObserver(&b));
  ASSERT_TRUE(InstallTxObserver(&c));

  NotifyTxObservers([](TxObserver& observer) { observer.OnTxBegin(false); });
  ASSERT_EQ(order, (std::vector<const CountingObserver*>{&a, &b, &c}));

  // Removing the middle observer compacts the list; the survivors keep
  // their installation order.
  ASSERT_TRUE(RemoveTxObserver(&b));
  order.clear();
  NotifyTxObservers([](TxObserver& observer) { observer.OnTxBegin(false); });
  EXPECT_EQ(order, (std::vector<const CountingObserver*>{&a, &c}));
  EXPECT_EQ(b.begins(), 1);

  ASSERT_TRUE(RemoveTxObserver(&a));
  ASSERT_TRUE(RemoveTxObserver(&c));
  ASSERT_FALSE(HasTxObservers());
}

// ---------------------------------------------------------- AbortCause ----

TEST(AbortCauseTest, NamesAndThreadLocalInfoRoundTrip) {
  EXPECT_STREQ(AbortCauseName(sb7::AbortCause::kReadValidation), "read_validation");
  EXPECT_STREQ(AbortCauseName(sb7::AbortCause::kWriteLock), "write_lock");
  EXPECT_STREQ(AbortCauseName(sb7::AbortCause::kKill), "kill");
  EXPECT_STREQ(AbortCauseName(sb7::AbortCause::kSnapshotTooOld), "snapshot_too_old");
  EXPECT_STREQ(AbortCauseName(sb7::AbortCause::kUnknown), "unknown");

  int dummy = 0;
  SetTxAbortCause(sb7::AbortCause::kWriteLock, &dummy);
  const TxAbortInfo info = ConsumeTxAbortInfo();
  EXPECT_EQ(info.cause, sb7::AbortCause::kWriteLock);
  EXPECT_EQ(info.conflict_key, reinterpret_cast<uintptr_t>(&dummy));
  // Consuming resets: a stale cause can never label a later abort.
  const TxAbortInfo second = ConsumeTxAbortInfo();
  EXPECT_EQ(second.cause, sb7::AbortCause::kUnknown);
  EXPECT_EQ(second.conflict_key, 0u);
}

// ------------------------------------------------------- ConflictTable ----

TEST(ConflictTableTest, PairsVictimsAgainstTheLastWriter) {
  ConflictTable table;
  const uintptr_t key = 0x1000;
  table.RecordWrite(key, /*op_index=*/2);
  table.RecordAbort(key, /*victim_op_index=*/5);
  table.RecordAbort(0, /*victim_op_index=*/5);  // no key: counted, unattributed

  const ConflictSummary summary = SummarizeConflicts(table.TakeSnapshot(), 8);
  EXPECT_EQ(summary.total_aborts, 2);
  EXPECT_EQ(summary.attributed_aborts, 1);
  ASSERT_EQ(summary.top_locations.size(), 1u);
  EXPECT_EQ(summary.top_locations[0].key, key);
  EXPECT_EQ(summary.top_locations[0].aborts, 1);
  ASSERT_EQ(summary.top_pairs.size(), 1u);
  EXPECT_EQ(summary.top_pairs[0].victim_slot, ConflictOpSlot(5));
  EXPECT_EQ(summary.top_pairs[0].writer_slot, ConflictOpSlot(2));
  EXPECT_EQ(summary.top_pairs[0].aborts, 1);
}

TEST(ConflictTableTest, DeltaIsolatesAWindow) {
  ConflictTable table;
  table.RecordWrite(0x2000, 1);
  table.RecordAbort(0x2000, 3);
  const ConflictTable::Snapshot begin = table.TakeSnapshot();
  table.RecordAbort(0x2000, 4);
  table.RecordAbort(0x2000, 4);
  const ConflictTable::Snapshot end = table.TakeSnapshot();

  const ConflictSummary window = SummarizeConflicts(ConflictTable::Delta(end, begin), 8);
  EXPECT_EQ(window.total_aborts, 2);
  EXPECT_EQ(window.attributed_aborts, 2);
  ASSERT_EQ(window.top_pairs.size(), 1u);
  EXPECT_EQ(window.top_pairs[0].victim_slot, ConflictOpSlot(4));

  // A default-constructed begin (a window that never opened) imposes no
  // subtraction: the delta is the end snapshot itself.
  const ConflictSummary whole =
      SummarizeConflicts(ConflictTable::Delta(end, ConflictTable::Snapshot{}), 8);
  EXPECT_EQ(whole.total_aborts, 3);
}

TEST(ConflictTableTest, EmptySnapshotSummarizesToZeros) {
  // Regression: a scenario phase skipped by the run's op cap leaves its
  // window snapshots default-constructed; summarizing them must yield
  // zeros, not index out of empty vectors.
  const ConflictSummary summary = SummarizeConflicts(ConflictTable::Snapshot{}, 8);
  EXPECT_EQ(summary.total_aborts, 0);
  EXPECT_EQ(summary.attributed_aborts, 0);
  EXPECT_TRUE(summary.top_locations.empty());
  EXPECT_TRUE(summary.top_pairs.empty());
}

// -------------------------------------------------------------- Tracer ----

TEST(TracerTest, RecordsLifecyclesWithMonotonicTimestampsPerThread) {
  ASSERT_FALSE(HasTxObservers());
  Tracer tracer;
  tracer.Install();
  EXPECT_TRUE(TxTimingEnabled()) << "Install flips the timing flag on";
  auto stm = MakeStm("tl2");
  Cell cell(0);
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&stm, &cell] {
      for (int i = 0; i < 50; ++i) {
        stm->RunAtomically([&cell](Transaction&) { cell.value.Set(cell.value.Get() + 1); });
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  tracer.Uninstall();
  EXPECT_FALSE(TxTimingEnabled()) << "Uninstall flips the timing flag back off";

  const std::vector<Tracer::ThreadStream> streams = tracer.DrainEvents();
  ASSERT_EQ(streams.size(), 3u);
  int64_t commits = 0;
  for (const Tracer::ThreadStream& stream : streams) {
    ASSERT_FALSE(stream.events.empty());
    EXPECT_EQ(stream.dropped, 0);
    int64_t open = 0;
    for (size_t i = 0; i < stream.events.size(); ++i) {
      if (i > 0) {
        EXPECT_LE(stream.events[i - 1].nanos, stream.events[i].nanos)
            << "per-thread timestamps must be monotonic";
      }
      switch (stream.events[i].kind) {
        case EventKind::kBegin:
          ++open;
          break;
        case EventKind::kCommit:
          --open;
          ++commits;
          break;
        case EventKind::kAbort:
          --open;
          break;
        default:
          break;
      }
      EXPECT_GE(open, 0) << "commit/abort without a begin";
      EXPECT_LE(open, 1) << "nested begin without closing the previous attempt";
    }
    EXPECT_EQ(open, 0) << "every attempt span must be closed";
  }
  EXPECT_EQ(commits, 150) << "all 3x50 committed transactions sampled at period 1";

  // The latency decomposition saw every attempt (slot 0: no op context).
  const std::vector<trace::OpLatencyBreakdown> latency = tracer.LatencyByOp();
  ASSERT_EQ(latency.size(), static_cast<size_t>(trace::kConflictOpSlots));
  EXPECT_GE(latency[0].attempts, 150);
  EXPECT_EQ(latency[0].commits, 150);
  EXPECT_EQ(latency[0].attempts, latency[0].commits + latency[0].aborts);
  EXPECT_GT(latency[0].read_nanos, 0);
}

TEST(TracerTest, SamplePeriodKeepsWholeTransactions) {
  ASSERT_FALSE(HasTxObservers());
  TraceOptions options;
  options.sample_period = 3;
  Tracer tracer(options);
  tracer.Install();
  auto stm = MakeStm("tl2");
  Cell cell(0);
  for (int i = 0; i < 9; ++i) {
    stm->RunAtomically([&cell](Transaction&) { cell.value.Set(cell.value.Get() + 1); });
  }
  tracer.Uninstall();

  const std::vector<Tracer::ThreadStream> streams = tracer.DrainEvents();
  ASSERT_EQ(streams.size(), 1u);
  int64_t begins = 0;
  int64_t commits = 0;
  for (const TraceEvent& event : streams[0].events) {
    begins += event.kind == EventKind::kBegin ? 1 : 0;
    commits += event.kind == EventKind::kCommit ? 1 : 0;
  }
  EXPECT_EQ(begins, 3) << "every 3rd transaction sampled";
  EXPECT_EQ(commits, 3) << "a sampled transaction keeps its closing event";
}

TEST(TracerTest, AttributesDeterministicAbortToCauseAndPair) {
  ASSERT_FALSE(HasTxObservers());
  Tracer tracer;
  tracer.Install();
  auto stm = MakeStm("tl2");
  Cell cell(0);
  const void* lock = &cell.value.LockWord();  // raw-ok: conflict key only

  // "Writer op" 2 touches the cell, planting the last-writer tag.
  SetTxOpContext(2);
  stm->RunAtomically([&cell](Transaction&) { cell.value.Set(1); });

  // "Victim op" 5 aborts once, annotated exactly as a backend would.
  SetTxOpContext(5);
  bool first = true;
  stm->RunAtomically([&](Transaction&) {
    if (first) {
      first = false;
      SetTxAbortCause(sb7::AbortCause::kWriteLock, lock);
      throw TxAborted{};
    }
    cell.value.Set(2);
  });
  SetTxOpContext(-1);
  tracer.Uninstall();

  const ConflictSummary summary = SummarizeConflicts(tracer.ConflictSnapshot(), 8);
  EXPECT_EQ(summary.total_aborts, 1);
  EXPECT_EQ(summary.attributed_aborts, 1);
  ASSERT_EQ(summary.top_locations.size(), 1u);
  EXPECT_EQ(summary.top_locations[0].key, reinterpret_cast<uint64_t>(lock));
  ASSERT_EQ(summary.top_pairs.size(), 1u);
  EXPECT_EQ(summary.top_pairs[0].victim_slot, ConflictOpSlot(5));
  EXPECT_EQ(summary.top_pairs[0].writer_slot, ConflictOpSlot(2));

  // The timeline carries the same story: one abort span, cause write_lock.
  const std::vector<Tracer::ThreadStream> streams = tracer.DrainEvents();
  ASSERT_EQ(streams.size(), 1u);
  int aborts = 0;
  for (const TraceEvent& event : streams[0].events) {
    if (event.kind == EventKind::kAbort) {
      ++aborts;
      EXPECT_EQ(event.cause, sb7::AbortCause::kWriteLock);
      EXPECT_EQ(event.op, 5);
    }
  }
  EXPECT_EQ(aborts, 1);
}

// -------------------------------------------- oracle + tracer composing ---

// One deterministic single-thread workload, run with a fresh world each
// time; returns the committed history and the tracer's event-kind sequence
// (empty when the respective observer was not requested).
struct ComposedRun {
  std::vector<std::vector<uint64_t>> tx_words;  // per committed tx, access words
  std::vector<EventKind> kinds;
};

ComposedRun RunComposed(bool with_oracle, bool with_tracer) {
  HistoryRecorder recorder;
  Tracer tracer;
  if (with_oracle) {
    recorder.Install();
  }
  if (with_tracer) {
    tracer.Install();
  }
  auto stm = MakeStm("tl2");
  {
    Cell cell(0);
    for (int i = 0; i < 10; ++i) {
      stm->RunAtomically([&cell](Transaction&) { cell.value.Set(cell.value.Get() + 1); });
    }
  }
  if (with_tracer) {
    tracer.Uninstall();
  }
  if (with_oracle) {
    recorder.Uninstall();
  }

  ComposedRun run;
  if (with_oracle) {
    const History history = recorder.TakeHistory();
    EXPECT_TRUE(CheckOpacity(history).ok());
    for (const HistoryTx& tx : history.committed) {
      std::vector<uint64_t> words;
      for (const HistoryAccess& access : tx.accesses) {
        words.push_back(access.word);
      }
      run.tx_words.push_back(std::move(words));
    }
  }
  if (with_tracer) {
    for (const Tracer::ThreadStream& stream : tracer.DrainEvents()) {
      for (const TraceEvent& event : stream.events) {
        run.kinds.push_back(event.kind);
      }
    }
  }
  return run;
}

TEST(ObserverCompositionTest, OracleAndTracerSeeTheSameRunUnchanged) {
  ASSERT_FALSE(HasTxObservers());
  const ComposedRun oracle_alone = RunComposed(/*with_oracle=*/true, /*with_tracer=*/false);
  const ComposedRun tracer_alone = RunComposed(/*with_oracle=*/false, /*with_tracer=*/true);
  const ComposedRun both = RunComposed(/*with_oracle=*/true, /*with_tracer=*/true);
  ASSERT_FALSE(HasTxObservers()) << "all observers uninstalled";

  // The oracle's recorded history is byte-identical whether or not the
  // tracer rode along...
  ASSERT_EQ(oracle_alone.tx_words.size(), 10u);
  EXPECT_EQ(both.tx_words, oracle_alone.tx_words);
  // ...and the tracer's event stream is identical whether or not the oracle
  // rode along.
  ASSERT_FALSE(tracer_alone.kinds.empty());
  EXPECT_EQ(both.kinds, tracer_alone.kinds);
}

// -------------------------------------------------- Chrome trace golden ---

std::set<std::string> KeysOf(const perf::JsonValue& object) {
  std::set<std::string> keys;
  for (const auto& [key, value] : object.Members()) {
    (void)value;
    keys.insert(key);
  }
  return keys;
}

TEST(ChromeTraceGoldenTest, DocumentShapeAndKeySetsArePinned) {
  // Synthetic two-stream trace: stream 0 holds a retry chain (abort with a
  // cause, backoff, committed retry) plus a validation instant; stream 1
  // holds an orphaned commit (its begin was lost to ring overflow) and the
  // drop count.
  std::vector<Tracer::ThreadStream> streams(2);
  streams[0].tid = 0;
  streams[0].events = {
      MakeEvent(1000, EventKind::kBegin, 0, sb7::AbortCause::kUnknown, 0),
      MakeEvent(1500, EventKind::kValidation, 7),
      MakeEvent(2000, EventKind::kAbort, 0, sb7::AbortCause::kReadValidation),
      MakeEvent(2200, EventKind::kBackoff, 1),
      MakeEvent(2500, EventKind::kBegin, 1, sb7::AbortCause::kUnknown, 0),
      MakeEvent(3000, EventKind::kCommit, 1),
  };
  streams[1].tid = 1;
  streams[1].events = {MakeEvent(4000, EventKind::kCommit, 0)};
  streams[1].dropped = 2;

  trace::ChromeTraceOptions options;
  options.op_names = {"OP1"};
  std::ostringstream out;
  WriteChromeTrace(out, streams, options);

  // The in-tree parser (what sb7-bench --validate-json runs) must accept it.
  const perf::JsonParseResult parsed = perf::ParseJson(out.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const perf::JsonValue& doc = parsed.value;

  EXPECT_EQ(KeysOf(doc),
            (std::set<std::string>{"displayTimeUnit", "traceEvents", "otherData"}));
  EXPECT_EQ(doc.Find("displayTimeUnit")->AsString(), "ms");
  EXPECT_EQ(KeysOf(*doc.Find("otherData")),
            (std::set<std::string>{"tool", "dropped_events"}));
  EXPECT_EQ(doc.Find("otherData")->Find("tool")->AsString(), "stmbench7");
  EXPECT_EQ(doc.Find("otherData")->Find("dropped_events")->AsNumber(), 2.0);

  const perf::JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Stream 0: metadata + validation + abort span + backoff + commit span;
  // stream 1: metadata only — the orphaned commit is skipped, not invented.
  ASSERT_EQ(events->Items().size(), 6u);

  const perf::JsonValue& meta = events->Items()[0];
  EXPECT_EQ(meta.Find("ph")->AsString(), "M");
  EXPECT_EQ(meta.Find("name")->AsString(), "thread_name");
  EXPECT_EQ(meta.Find("args")->Find("name")->AsString(), "worker-0");

  const perf::JsonValue& validation = events->Items()[1];
  EXPECT_EQ(KeysOf(validation), (std::set<std::string>{"ph", "pid", "tid", "ts", "s",
                                                       "name", "cat", "args"}));
  EXPECT_EQ(validation.Find("ph")->AsString(), "i");
  EXPECT_EQ(validation.Find("name")->AsString(), "validation");
  EXPECT_EQ(validation.Find("args")->Find("steps")->AsNumber(), 7.0);
  // Timestamps are microseconds relative to the earliest event (1000 ns).
  EXPECT_EQ(validation.Find("ts")->AsNumber(), 0.5);

  const perf::JsonValue& abort_span = events->Items()[2];
  EXPECT_EQ(KeysOf(abort_span), (std::set<std::string>{"ph", "pid", "tid", "ts", "dur",
                                                       "name", "cat", "cname", "args"}));
  EXPECT_EQ(abort_span.Find("ph")->AsString(), "X");
  EXPECT_EQ(abort_span.Find("name")->AsString(), "OP1 abort:read_validation");
  EXPECT_EQ(abort_span.Find("cname")->AsString(), "bad");
  EXPECT_EQ(abort_span.Find("ts")->AsNumber(), 0.0);
  EXPECT_EQ(abort_span.Find("dur")->AsNumber(), 1.0);
  EXPECT_EQ(KeysOf(*abort_span.Find("args")),
            (std::set<std::string>{"op", "outcome", "retry", "cause"}));
  EXPECT_EQ(abort_span.Find("args")->Find("cause")->AsString(), "read_validation");

  const perf::JsonValue& backoff = events->Items()[3];
  EXPECT_EQ(backoff.Find("name")->AsString(), "backoff");
  EXPECT_EQ(backoff.Find("args")->Find("attempt")->AsNumber(), 1.0);

  const perf::JsonValue& commit_span = events->Items()[4];
  EXPECT_EQ(commit_span.Find("ph")->AsString(), "X");
  EXPECT_EQ(commit_span.Find("name")->AsString(), "OP1");
  EXPECT_EQ(commit_span.Find("cname")->AsString(), "good");
  EXPECT_EQ(KeysOf(*commit_span.Find("args")),
            (std::set<std::string>{"op", "outcome", "retry"}))
      << "committed spans carry no cause";
  EXPECT_EQ(commit_span.Find("args")->Find("retry")->AsNumber(), 1.0);

  const perf::JsonValue& meta1 = events->Items()[5];
  EXPECT_EQ(meta1.Find("ph")->AsString(), "M");
  EXPECT_EQ(meta1.Find("args")->Find("name")->AsString(), "worker-1");
}

// ------------------------------------------------------- StmStats views ---

TEST(StmStatsViewTest, SubtractAndAddCoverEveryCounter) {
  // Distinct per-field values, generated by the same X-macro that declares
  // the fields: a counter added to the list without updating Subtract/Add
  // cannot slip through.
  StmStats::View a;
  StmStats::View b;
  int64_t v = 1;
#define SB7_TEST_FILL(name) \
  a.name = v * 1000;        \
  b.name = v;               \
  ++v;
  SB7_STM_STATS_FIELDS(SB7_TEST_FILL)
#undef SB7_TEST_FILL

  const StmStats::View diff = StmStats::View::Subtract(a, b);
  const StmStats::View sum = StmStats::View::Add(a, b);
  v = 1;
#define SB7_TEST_CHECK(name)              \
  EXPECT_EQ(diff.name, v * 1000 - v) << #name; \
  EXPECT_EQ(sum.name, v * 1000 + v) << #name;  \
  ++v;
  SB7_STM_STATS_FIELDS(SB7_TEST_CHECK)
#undef SB7_TEST_CHECK
  EXPECT_EQ(v, 17) << "field count drifted; update the abort-cause plumbing too";
}

TEST(StmStatsTest, AddAbortCauseRoutesToTheMatchingBucket) {
  StmStats stats;
  stats.AddAbortCause(sb7::AbortCause::kReadValidation);
  stats.AddAbortCause(sb7::AbortCause::kWriteLock);
  stats.AddAbortCause(sb7::AbortCause::kWriteLock);
  stats.AddAbortCause(sb7::AbortCause::kKill);
  stats.AddAbortCause(sb7::AbortCause::kSnapshotTooOld);
  stats.AddAbortCause(sb7::AbortCause::kUnknown);
  const StmStats::View view = stats.Snapshot();
  EXPECT_EQ(view.aborts_read_validation, 1);
  EXPECT_EQ(view.aborts_write_lock, 2);
  EXPECT_EQ(view.aborts_kill, 1);
  EXPECT_EQ(view.aborts_snapshot_too_old, 1);
  EXPECT_EQ(view.aborts_unknown, 1);
}

}  // namespace
}  // namespace sb7
