// Targeted regression and edge-case tests for STM internals: the TL2
// read-then-write-same-location race, TinySTM snapshot extension, ASTM
// seqlock states, the versioned-lock encoding and per-field lock words, the
// flat write index, TxText under real transactions, and string-keyed
// indexes (the document-title index shape).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/containers/skiplist_index.h"
#include "src/containers/snapshot_index.h"
#include "src/stm/astm.h"
#include "src/stm/lock_table.h"
#include "src/stm/stm_factory.h"
#include "src/stm/tinystm.h"
#include "src/stm/tl2.h"
#include "src/stm/write_index.h"

namespace sb7 {
namespace {

class Cell : public TmObject {
 public:
  explicit Cell(int64_t initial = 0) : value(unit(), initial) {}
  TxField<int64_t> value;
};

TEST(LockTableTest, EncodingRoundTrips) {
  EXPECT_FALSE(LockTable::IsLocked(LockTable::MakeVersion(42)));
  EXPECT_EQ(LockTable::VersionOf(LockTable::MakeVersion(42)), 42u);
  const auto* owner = reinterpret_cast<const void*>(uintptr_t{0x1000});
  const uint64_t locked = LockTable::MakeLocked(owner);
  EXPECT_TRUE(LockTable::IsLocked(locked));
  EXPECT_EQ(LockTable::OwnerOf(locked), owner);
}

TEST(LockTableTest, ClockIsMonotonic) {
  const uint64_t a = LockTable::ClockNow();
  const uint64_t b = LockTable::ClockAdvance();
  EXPECT_GT(b, a);
  EXPECT_GE(LockTable::ClockNow(), b);
}

TEST(LockTableTest, LockWordIsStablePerFieldAndBornUnlocked) {
  TmObject holder;
  TxField<int64_t> field(holder.unit(), 0);
  // raw-ok: the test inspects the lock word itself.
  auto& l1 = field.LockWord();
  auto& l2 = field.LockWord();  // raw-ok: same
  EXPECT_EQ(&l1, &l2);
  EXPECT_EQ(l1.load(std::memory_order_relaxed), LockTable::MakeVersion(0));
}

// Every live field owns its lock, so no two fields can falsely conflict;
// hashed into a shared table of 2^20 stripes, 20,000 fields would form about
// 190 colliding pairs.
TEST(LockTableTest, LiveFieldsHaveDistinctLockWords) {
  constexpr int kFields = 20000;
  TmObject holder;
  std::vector<std::unique_ptr<TxField<int64_t>>> fields;
  fields.reserve(kFields);
  std::unordered_set<const void*> locks;
  for (int i = 0; i < kFields; ++i) {
    fields.push_back(std::make_unique<TxField<int64_t>>(holder.unit(), i));
    locks.insert(&fields.back()->LockWord());  // raw-ok: address only
  }
  EXPECT_EQ(locks.size(), static_cast<size_t>(kFields));
}

// --- WriteIndex: the redo-log STMs' field -> log position map ---

TEST(WriteIndexTest, FindInsertAndOverwrite) {
  WriteIndex index;
  int a = 0;
  int b = 0;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.Find(&a), WriteIndex::kNotFound);
  EXPECT_EQ(index.Insert(&a, 7), std::make_pair(uint32_t{7}, true));
  EXPECT_EQ(index.Insert(&b, 8), std::make_pair(uint32_t{8}, true));
  // A second insert of a present key keeps the first position, as
  // try_emplace does: the caller overwrites the log entry it points at.
  EXPECT_EQ(index.Insert(&a, 9), std::make_pair(uint32_t{7}, false));
  EXPECT_EQ(index.Find(&a), 7u);
  EXPECT_EQ(index.Find(&b), 8u);
  EXPECT_EQ(index.size(), 2u);
}

TEST(WriteIndexTest, GrowsThroughSeveralDoublingsAndStaysAtMostHalfFull) {
  WriteIndex index;
  const size_t initial = index.capacity();
  constexpr uint32_t kKeys = 5000;
  std::vector<uint64_t> keys(kKeys);
  for (uint32_t i = 0; i < kKeys; ++i) {
    EXPECT_TRUE(index.Insert(&keys[i], i).second);
    EXPECT_LE(2 * index.size(), index.capacity());
  }
  EXPECT_GE(index.capacity(), initial * 64) << "at least six doublings";
  for (uint32_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(index.Find(&keys[i]), i);
  }
  uint64_t absent = 0;
  EXPECT_EQ(index.Find(&absent), WriteIndex::kNotFound);
}

TEST(WriteIndexTest, ClearForgetsEveryEntry) {
  WriteIndex index;
  std::vector<uint64_t> keys(100);
  for (uint32_t i = 0; i < keys.size(); ++i) {
    index.Insert(&keys[i], i);
  }
  const size_t capacity = index.capacity();
  index.clear();
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.capacity(), capacity) << "clear keeps the grown table";
  for (const uint64_t& key : keys) {
    EXPECT_EQ(index.Find(&key), WriteIndex::kNotFound);
  }
  // Reinserting after a clear records the new positions.
  EXPECT_EQ(index.Insert(&keys[5], 42), std::make_pair(uint32_t{42}, true));
  EXPECT_EQ(index.Find(&keys[5]), 42u);
  EXPECT_EQ(index.Find(&keys[6]), WriteIndex::kNotFound);
}

TEST(WriteIndexTest, GenerationWrapAroundForgetsStaleSlots) {
  WriteIndex index;
  uint64_t early = 0;
  uint64_t late = 0;
  index.Insert(&early, 1);
  index.clear();
  // Two full cycles of the 16-bit generation tag. Without the reset at the
  // wrap, the tag would come back to the generation that filled `early`'s
  // slot and the entry would reappear.
  for (uint32_t i = 0; i < 2 * 65536; ++i) {
    ASSERT_EQ(index.Find(&early), WriteIndex::kNotFound) << "after " << i << " clears";
    ASSERT_TRUE(index.Insert(&late, i).second);
    ASSERT_EQ(index.Find(&late), i);
    index.clear();
  }
}

// Regression: TL2-style read-set validation must reject a stripe the
// transaction itself locked at commit when a rival committed to it *between
// the read and the lock acquisition*. Before the fix, locked-by-self stripes
// skipped the version check entirely, losing updates (increments vanished).
// mvstm's update path shares the commit protocol, so it is swept too.
class CommitLockRegressionTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CommitLockRegressionTest, ReadModifyWriteNeverLosesUpdates) {
  auto stm = MakeStm(GetParam());
  ASSERT_NE(stm, nullptr);
  Cell cell(0);
  constexpr int kThreads = 4;
  constexpr int kIncrementsPerThread = 20'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        stm->RunAtomically([&](Transaction&) { cell.value.Set(cell.value.Get() + 1); });
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(cell.value.Get(), kThreads * kIncrementsPerThread);
}

INSTANTIATE_TEST_SUITE_P(WordStms, CommitLockRegressionTest, ::testing::Values("tl2", "mvstm"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// The defining mvstm regression: while a writer keeps committing, read-only
// transactions keep serving snapshots and record zero aborts. Under tl2 the
// same workload aborts readers whenever a commit lands mid-read — that
// contrast is exactly the paper's §5 long-traversal collapse.
TEST(MvstmRegressionTest, ReadOnlyRecordsZeroAbortsWhileWritersCommit) {
  auto stm = MakeStm("mvstm");
  ASSERT_NE(stm, nullptr);
  Cell a(0);
  Cell b(0);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 1; i <= 20'000; ++i) {
      stm->RunAtomically([&](Transaction&) {
        a.value.Set(i);
        b.value.Set(i);
      });
      EbrDomain::Global().Quiesce();
    }
    stop = true;
  });
  std::atomic<bool> torn{false};
  std::thread reader([&] {
    while (!stop.load()) {
      stm->RunAtomically(
          [&](Transaction&) {
            if (a.value.Get() != b.value.Get()) {
              torn = true;
            }
          },
          /*read_only=*/true);
      EbrDomain::Global().Quiesce();
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(torn.load());
  const StmStats::View view = stm->stats().Snapshot();
  EXPECT_EQ(view.ro_aborts, 0);
  EXPECT_GT(view.ro_commits, 0);
  EXPECT_GE(view.commits, 20'000 + view.ro_commits);  // writers committed throughout
}

TEST(TinyStmTest, SnapshotExtensionLetsDisjointReadersSurvive) {
  // A reader that reads A, then observes a newer version on B (because a
  // writer committed to B meanwhile), must extend — not abort — when A is
  // untouched. Orchestrated deterministically from one thread with a
  // hand-built reader and explicit transaction interleaving.
  Cell a(1);
  Cell b(2);

  // Start a reader transaction by hand.
  TinyTx reader;
  reader.BeginAttempt();
  SetCurrentTx(&reader);
  EXPECT_EQ(a.value.Get(), 1);
  SetCurrentTx(nullptr);

  // A writer commits to B, advancing the global clock past the reader's rv.
  TinyStm writer_stm;
  writer_stm.RunAtomically([&](Transaction&) { b.value.Set(20); });

  // The reader now reads B: version > rv triggers extension, which succeeds
  // because A is unchanged.
  SetCurrentTx(&reader);
  EXPECT_EQ(b.value.Get(), 20);
  SetCurrentTx(nullptr);
  EXPECT_TRUE(reader.TryCommit());
}

TEST(TinyStmTest, ExtensionFailsWhenReadsAreStale) {
  Cell a(1);
  Cell b(2);

  TinyTx reader;
  reader.BeginAttempt();
  SetCurrentTx(&reader);
  EXPECT_EQ(a.value.Get(), 1);
  SetCurrentTx(nullptr);

  // The writer updates BOTH cells: the reader's snapshot of A is now stale,
  // so its read of B must abort rather than extend.
  TinyStm writer_stm;
  writer_stm.RunAtomically([&](Transaction&) {
    a.value.Set(10);
    b.value.Set(20);
  });

  SetCurrentTx(&reader);
  bool aborted = false;
  try {
    b.value.Get();
  } catch (const TxAborted&) {
    aborted = true;
  }
  SetCurrentTx(nullptr);
  EXPECT_TRUE(aborted);
  reader.AbortSelf();
}

TEST(AstmInternalsTest, VersionIsEvenWhenStable) {
  Cell cell(0);
  AstmStm stm;
  stm.RunAtomically([&](Transaction&) { cell.value.Set(1); });
  EXPECT_EQ(cell.unit().astm_version.load() % 2, 0u);
  EXPECT_EQ(cell.unit().astm_owner.load(), nullptr);
  EXPECT_GT(cell.unit().astm_version.load(), 0u);  // bumped by the commit
}

TEST(AstmInternalsTest, ReadOnlyCommitDoesNotBumpVersions) {
  Cell cell(0);
  AstmStm stm;
  const uint64_t before = cell.unit().astm_version.load();
  stm.RunAtomically([&](Transaction&) { cell.value.Get(); });
  EXPECT_EQ(cell.unit().astm_version.load(), before);
}

TEST(AstmInternalsTest, PriorityCountsOpens) {
  AstmStm stm;
  Cell a, b, c;
  stm.RunAtomically([&](Transaction& tx) {
    auto* astm_tx = dynamic_cast<AstmTx*>(&tx);
    ASSERT_NE(astm_tx, nullptr);
    EXPECT_EQ(astm_tx->Priority(), 0);
    a.value.Get();
    b.value.Get();
    EXPECT_EQ(astm_tx->Priority(), 2);
    c.value.Set(1);
    EXPECT_EQ(astm_tx->Priority(), 3);
  });
}

// Pins the contract documented in src/stm/contention.h: exactly four named
// managers, each reporting the name it was requested under, and nullptr for
// anything else (no fuzzy matching, no default fallback).
TEST(ContentionManagerTest, FactoryNamesAndPolicies) {
  for (const char* name : {"polka", "karma", "aggressive", "timid"}) {
    auto manager = MakeContentionManager(name);
    ASSERT_NE(manager, nullptr) << name;
    EXPECT_EQ(manager->name(), name);
  }
  EXPECT_EQ(MakeContentionManager("nope"), nullptr);
  EXPECT_EQ(MakeContentionManager(""), nullptr);
  EXPECT_EQ(MakeContentionManager("Polka"), nullptr);  // names are case-sensitive
}

TEST(ContentionManagerTest, StmFactoryPropagatesUnknownManagerAsNullptr) {
  // An astm with an unknown arbiter must fail construction, not silently
  // fall back to a default manager.
  EXPECT_EQ(MakeStm("astm", "nope"), nullptr);
  EXPECT_NE(MakeStm("astm", "karma"), nullptr);
  // Word STMs ignore the manager name entirely.
  EXPECT_NE(MakeStm("tl2", "nope"), nullptr);
  EXPECT_NE(MakeStm("mvstm", "nope"), nullptr);
}

TEST(TxTextTest, CommitAndAbortPathsUnderRealStm) {
  auto stm = MakeStm("tl2");
  TmObject holder;
  TxText text(holder.unit(), "I am v1");

  stm->RunAtomically([&](Transaction&) { text.Set("I am v2"); });
  EXPECT_EQ(text.Get(), "I am v2");

  struct Bail {};
  bool first = true;
  EXPECT_THROW(stm->RunAtomically([&](Transaction&) {
                 text.Set("I am v3");
                 if (first) {
                   first = false;
                   throw TxAborted{};  // roll the write back once
                 }
                 throw Bail{};  // then commit it via the failure path
               }),
               Bail);
  EXPECT_EQ(text.Get(), "I am v3");
  EbrDomain::Global().DrainAll();
}

TEST(StringIndexTest, DocumentTitleShapedKeysWork) {
  // The document-title index is the only string-keyed index (Table 1 row 4).
  for (int kind = 0; kind < 2; ++kind) {
    std::unique_ptr<Index<std::string, int64_t*>> index;
    if (kind == 0) {
      index = std::make_unique<SkipListIndex<std::string, int64_t*>>();
    } else {
      index = std::make_unique<SnapshotIndex<std::string, int64_t*>>();
    }
    static int64_t value = 0;
    for (int i = 0; i < 100; ++i) {
      index->Insert("Composite Part #" + std::to_string(i), &value);
    }
    EXPECT_EQ(index->Size(), 100);
    EXPECT_NE(index->Lookup("Composite Part #42"), nullptr);
    EXPECT_EQ(index->Lookup("Composite Part #100"), nullptr);
    EXPECT_TRUE(index->Remove("Composite Part #42"));
    EXPECT_EQ(index->Lookup("Composite Part #42"), nullptr);
    // Lexicographic order: "#1" < "#10" < "#11" < ... < "#2".
    std::string previous;
    index->ForEach([&previous](const std::string& key, int64_t* const&) {
      EXPECT_LT(previous, key);
      previous = key;
      return true;
    });
  }
  EbrDomain::Global().DrainAll();
}

TEST(BackoffTest, PauseIsBounded) {
  // Smoke: high attempts must not hang (sleep is capped at 1 ms).
  for (int attempt = 0; attempt < 40; ++attempt) {
    Backoff::Pause(attempt);
  }
  SUCCEED();
}

}  // namespace
}  // namespace sb7
