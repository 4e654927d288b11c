// Correctness properties of the five STM implementations, swept over
// {tl2, tinystm, norec, astm, mvstm} with parameterized gtest. These are the invariants an
// STM must provide for the benchmark's results to be meaningful: atomicity,
// consistent (opaque) reads, rollback on abort, hook discipline, and the
// paper's failure-commit semantics.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/containers/txvector.h"
#include "src/ebr/ebr.h"
#include "src/stm/astm.h"
#include "src/stm/lock_table.h"
#include "src/stm/stm_factory.h"

namespace sb7 {
namespace {

class Cell : public TmObject {
 public:
  explicit Cell(int64_t initial = 0) : value(unit(), initial) {}
  TxField<int64_t> value;
};

struct FailureProbe {};

class StmTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    stm_ = MakeStm(GetParam());
    ASSERT_NE(stm_, nullptr);
  }
  std::unique_ptr<Stm> stm_;
};

TEST_P(StmTest, SingleThreadedReadWrite) {
  Cell cell(10);
  stm_->RunAtomically([&](Transaction&) {
    EXPECT_EQ(cell.value.Get(), 10);
    cell.value.Set(11);
    EXPECT_EQ(cell.value.Get(), 11);  // read-own-write
  });
  EXPECT_EQ(cell.value.Get(), 11);
  EXPECT_EQ(stm_->stats().commits.load(), 1);
  EXPECT_EQ(stm_->stats().aborts.load(), 0);
}

TEST_P(StmTest, ReadOnlyTransactionCommits) {
  Cell cell(5);
  int64_t seen = 0;
  stm_->RunAtomically([&](Transaction&) { seen = cell.value.Get(); });
  EXPECT_EQ(seen, 5);
  EXPECT_EQ(stm_->stats().commits.load(), 1);
}

TEST_P(StmTest, BankTransferConservation) {
  constexpr int kAccounts = 16;
  constexpr int kThreads = 4;
  constexpr int kTransfersPerThread = 3000;
  constexpr int64_t kInitial = 1000;

  std::vector<std::unique_ptr<Cell>> accounts;
  for (int i = 0; i < kAccounts; ++i) {
    accounts.push_back(std::make_unique<Cell>(kInitial));
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kTransfersPerThread; ++i) {
        const int from = static_cast<int>(rng.NextBounded(kAccounts));
        const int to = static_cast<int>(rng.NextBounded(kAccounts));
        const int64_t amount = rng.NextInRange(1, 10);
        stm_->RunAtomically([&](Transaction&) {
          accounts[from]->value.Set(accounts[from]->value.Get() - amount);
          accounts[to]->value.Set(accounts[to]->value.Get() + amount);
        });
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }

  int64_t total = 0;
  for (const auto& account : accounts) {
    total += account->value.Get();
  }
  EXPECT_EQ(total, kAccounts * kInitial);
  EXPECT_EQ(stm_->stats().commits.load(),
            static_cast<int64_t>(kThreads) * kTransfersPerThread);
}

TEST_P(StmTest, OpaqueReadsNeverObserveTornPairs) {
  // Writers keep two cells equal; any transaction that reads both must see
  // equal values *inside its body* — opacity, not just commit-time safety.
  Cell a(0);
  Cell b(0);
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};

  std::thread writer([&] {
    for (int i = 1; i <= 20'000; ++i) {
      stm_->RunAtomically([&](Transaction&) {
        a.value.Set(i);
        b.value.Set(i);
      });
    }
    stop = true;
  });
  std::thread reader([&] {
    while (!stop.load()) {
      stm_->RunAtomically([&](Transaction&) {
        const int64_t x = a.value.Get();
        const int64_t y = b.value.Get();
        if (x != y) {
          torn = true;
        }
      });
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(a.value.Get(), 20'000);
  EXPECT_EQ(b.value.Get(), 20'000);
}

TEST_P(StmTest, WriteSkewIsPrevented) {
  // Invariant: a + b <= 1. Each transaction reads both and, if the sum is
  // zero, sets one of them to 1. A serializable STM must not let two such
  // transactions both commit.
  for (int round = 0; round < 200; ++round) {
    Cell a(0);
    Cell b(0);
    std::atomic<int> ready{0};
    auto attempt = [&](Cell& mine) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      stm_->RunAtomically([&](Transaction&) {
        if (a.value.Get() + b.value.Get() == 0) {
          mine.value.Set(1);
        }
      });
    };
    std::thread t1(attempt, std::ref(a));
    std::thread t2(attempt, std::ref(b));
    t1.join();
    t2.join();
    EXPECT_LE(a.value.Get() + b.value.Get(), 1);
  }
}

TEST_P(StmTest, FailureCommitsAndPropagates) {
  Cell cell(1);
  int64_t seen = -1;
  EXPECT_THROW(stm_->RunAtomically([&](Transaction&) {
                 seen = cell.value.Get();
                 throw FailureProbe{};
               }),
               FailureProbe);
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(stm_->stats().commits.load(), 1);  // failures are committed outcomes
}

TEST_P(StmTest, FailureAfterWritesCommitsTheWrites) {
  // An operation may mutate state before discovering it must fail; under the
  // paper's semantics the failure is still a committed outcome.
  Cell cell(0);
  EXPECT_THROW(stm_->RunAtomically([&](Transaction&) {
                 cell.value.Set(99);
                 throw FailureProbe{};
               }),
               FailureProbe);
  EXPECT_EQ(cell.value.Get(), 99);
}

TEST_P(StmTest, CommitHooksRunExactlyOnceOnCommit) {
  Cell cell(0);
  std::atomic<int> commit_hooks{0};
  std::atomic<int> abort_hooks{0};
  stm_->RunAtomically([&](Transaction& tx) {
    cell.value.Set(1);
    tx.OnCommit([&] { commit_hooks.fetch_add(1); });
    tx.OnAbort([&] { abort_hooks.fetch_add(1); });
  });
  EXPECT_EQ(commit_hooks.load(), 1);
  EXPECT_EQ(abort_hooks.load(), 0);
}

TEST_P(StmTest, AbortHooksRunOnEveryAbortedAttempt) {
  // Force at least one abort via a conflicting writer thread, then count
  // that abort hooks fired for aborted attempts and the commit hook once.
  Cell cell(0);
  std::atomic<int> abort_hooks{0};
  std::atomic<int> commit_hooks{0};
  std::atomic<bool> stop{false};

  std::thread disturber([&] {
    auto other = MakeStm(GetParam());
    while (!stop.load()) {
      other->RunAtomically([&](Transaction&) {
        cell.value.Set(cell.value.Get() + 1);
      });
    }
  });

  for (int i = 0; i < 500; ++i) {
    stm_->RunAtomically([&](Transaction& tx) {
      tx.OnAbort([&] { abort_hooks.fetch_add(1); });
      tx.OnCommit([&] { commit_hooks.fetch_add(1); });
      cell.value.Set(cell.value.Get() + 1);
    });
  }
  stop = true;
  disturber.join();

  EXPECT_EQ(commit_hooks.load(), 500);
  EXPECT_EQ(abort_hooks.load(), stm_->stats().aborts.load());
}

TEST_P(StmTest, AbortRollsBackAllWrites) {
  // Drive contention hard enough that aborts happen, then verify the pair
  // invariant (both cells move together) — an un-rolled-back partial write
  // would break it.
  Cell a(0);
  Cell b(0);
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        stm_->RunAtomically([&](Transaction&) {
          const int64_t x = a.value.Get();
          a.value.Set(x + 1);
          b.value.Set(b.value.Get() + 1);
        });
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(a.value.Get(), kThreads * kIters);
  EXPECT_EQ(b.value.Get(), kThreads * kIters);
}

TEST_P(StmTest, StatsCountersAreConsistent) {
  Cell cell(0);
  for (int i = 0; i < 100; ++i) {
    stm_->RunAtomically([&](Transaction&) { cell.value.Set(cell.value.Get() + 1); });
  }
  const StmStats::View view = stm_->stats().Snapshot();
  EXPECT_EQ(view.starts, 100);
  EXPECT_EQ(view.commits, 100);
  EXPECT_EQ(view.aborts, 0);
  EXPECT_GE(view.reads, 100);
  EXPECT_GE(view.writes, 100);
}

// --- the retry loop ends every attempt: exact tallies and hooks ---

TEST_P(StmTest, AnAbortedAttemptIsTalliedAndRunsItsAbortHooks) {
  Cell a(1);
  Cell b(0);
  int attempts = 0;
  int commit_hooks = 0;
  int abort_hooks = 0;
  stm_->RunAtomically([&](Transaction& tx) {
    tx.OnCommit([&] { ++commit_hooks; });
    tx.OnAbort([&] { ++abort_hooks; });
    const int64_t seen = a.value.Get();
    if (attempts++ == 0) {
      throw TxAborted{};
    }
    b.value.Set(seen + 1);
  });
  const StmStats::View view = stm_->stats().Snapshot();
  EXPECT_EQ(view.starts, 1);
  EXPECT_EQ(view.commits, 1);
  EXPECT_EQ(view.aborts, 1);
  EXPECT_EQ(view.aborts_unknown, 1);
  EXPECT_EQ(view.reads, 2);  // the aborted attempt's read counts too
  EXPECT_EQ(view.writes, 1);
  EXPECT_EQ(abort_hooks, 1);
  EXPECT_EQ(commit_hooks, 1);
  EXPECT_EQ(b.value.Get(), 2);
}

TEST_P(StmTest, AnOperationFailureCommitsItsAttemptOnceAndPropagates) {
  Cell a(1);
  Cell b(0);
  int commit_hooks = 0;
  int abort_hooks = 0;
  EXPECT_THROW(stm_->RunAtomically([&](Transaction& tx) {
                 tx.OnCommit([&] { ++commit_hooks; });
                 tx.OnAbort([&] { ++abort_hooks; });
                 b.value.Set(a.value.Get() + 1);
                 throw FailureProbe{};
               }),
               FailureProbe);
  const StmStats::View view = stm_->stats().Snapshot();
  EXPECT_EQ(view.starts, 1);
  EXPECT_EQ(view.commits, 1);
  EXPECT_EQ(view.aborts, 0);
  EXPECT_EQ(view.reads, 1);
  EXPECT_EQ(view.writes, 1);
  EXPECT_EQ(commit_hooks, 1);
  EXPECT_EQ(abort_hooks, 0);
  EXPECT_EQ(b.value.Get(), 2);
}

// --- captured memory: objects the running attempt built skip the STM ---

TEST_P(StmTest, FieldsOfObjectsBuiltInTheAttemptSkipTheStm) {
  const uint64_t clock_before = LockTable::ClockNow();
  Cell* built = nullptr;
  stm_->RunAtomically([&](Transaction& tx) {
    auto* cell = new Cell(5);
    tx.OnAbort([cell] { delete cell; });
    EXPECT_TRUE(cell->unit().captured());
    EXPECT_EQ(cell->value.Get(), 5);
    cell->value.Set(6);
    cell->value.Set(cell->value.Get() + 1);
    EXPECT_EQ(cell->value.Get(), 7);
    built = cell;
  });
  std::unique_ptr<Cell> owner(built);
  EXPECT_FALSE(built->unit().captured());
  EXPECT_EQ(built->value.Get(), 7);
  const StmStats::View view = stm_->stats().Snapshot();
  EXPECT_EQ(view.commits, 1);
  EXPECT_EQ(view.reads, 0);
  EXPECT_EQ(view.writes, 0);
  // Nothing was logged: the commit was write-free (no clock tick), locked
  // nothing, published no mvstm version and opened no astm object.
  EXPECT_EQ(LockTable::ClockNow(), clock_before);
  // raw-ok: inspects the lock word to show that no commit locked the field.
  EXPECT_EQ(built->value.LockWord().load(std::memory_order_relaxed), 0u);
  // raw-ok: inspects the version-chain head to show that none was published.
  EXPECT_EQ(built->value.LoadMvHistory(std::memory_order_relaxed), nullptr);
  EXPECT_EQ(built->unit().astm_version.load(std::memory_order_relaxed), 0u);
}

TEST_P(StmTest, ObjectsBuiltByACommittedAttemptGoThroughTheStmAfterwards) {
  Cell* built = nullptr;
  stm_->RunAtomically([&](Transaction& tx) {
    built = new Cell(1);
    Cell* cell = built;
    tx.OnAbort([cell] { delete cell; });
    built->value.Set(2);
  });
  std::unique_ptr<Cell> owner(built);
  stm_->RunAtomically([&](Transaction&) {
    EXPECT_FALSE(built->unit().captured());
    built->value.Set(built->value.Get() + 1);
  });
  EXPECT_EQ(built->value.Get(), 3);
  const StmStats::View view = stm_->stats().Snapshot();
  EXPECT_EQ(view.reads, 1);
  EXPECT_EQ(view.writes, 1);
}

TEST_P(StmTest, ObjectsBuiltOutsideAttemptsNeverSkipTheStm) {
  Cell cell(4);
  stm_->RunAtomically([&](Transaction&) {
    EXPECT_FALSE(cell.unit().captured());
    cell.value.Set(cell.value.Get() + 1);
  });
  EXPECT_EQ(cell.value.Get(), 5);
  EXPECT_EQ(stm_->stats().reads.load(), 1);
  EXPECT_EQ(stm_->stats().writes.load(), 1);
}

// A cell that counts live instances, so a test sees what the abort hooks
// freed.
class CountedCell : public Cell {
 public:
  explicit CountedCell(std::atomic<int>& live) : live_(live) { live_.fetch_add(1); }
  ~CountedCell() override { live_.fetch_sub(1); }

 private:
  std::atomic<int>& live_;
};

// An object whose members own heap blocks that change while the attempt
// that built it runs: a vector that grows past its first chunk and a text
// that is replaced. Captured fields have no undo, so an aborted attempt
// leaves it holding the new chunk and body, which its destructor frees; the
// replaced ones must be freed exactly once too (ASan checks both).
struct Bundle : TmObject {
  Bundle() : text(unit(), "first body") {}
  TxVector<int64_t> items;
  TxText text;
};

TEST_P(StmTest, AnAbortedAttemptFreesWhatItBuiltAndItsRetryDrawsANewStamp) {
  std::atomic<int> live{0};
  std::unique_ptr<Cell> witness;  // built by the aborted attempt, kept
  std::unique_ptr<Cell> kept;     // built by the committed retry
  std::unique_ptr<Bundle> bundle;
  int attempts = 0;
  stm_->RunAtomically([&](Transaction& tx) {
    auto* cell = new CountedCell(live);
    tx.OnAbort([cell] { delete cell; });
    auto* fresh_bundle = new Bundle();
    tx.OnAbort([fresh_bundle] { delete fresh_bundle; });
    for (int64_t i = 0; i < 20; ++i) {
      fresh_bundle->items.PushBack(i);
    }
    fresh_bundle->text.Set("second body");
    cell->value.Set(attempts);
    EXPECT_TRUE(cell->unit().captured());
    if (attempts++ == 0) {
      witness = std::make_unique<Cell>(7);
      EXPECT_EQ(live.load(), 1);
      throw TxAborted{};
    }
    // The retry drew a new stamp: what the aborted attempt built is not
    // captured by it.
    EXPECT_FALSE(witness->unit().captured());
    EXPECT_TRUE(cell->unit().captured());
    kept.reset(cell);
    bundle.reset(fresh_bundle);
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(live.load(), 1);  // the aborted attempt's cell was freed
  EXPECT_EQ(kept->value.Get(), 1);
  ASSERT_EQ(bundle->items.Size(), 20);
  EXPECT_EQ(bundle->items.Get(19), 19);
  EXPECT_EQ(bundle->text.Get(), "second body");
  kept.reset();
  EXPECT_EQ(live.load(), 0);
  EbrDomain::Global().DrainAll();  // the replaced chunks and bodies
}

INSTANTIATE_TEST_SUITE_P(AllStms, StmTest,
                         ::testing::Values("tl2", "tinystm", "norec", "astm", "mvstm"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// --- ASTM-specific behaviour ---

TEST(AstmTest, ObjectCloneCostScalesWithPayload) {
  AstmStm stm;
  TmObject holder;
  TxText text(holder.unit(), std::string(100'000, 'x'));
  TxField<int64_t> flag(holder.unit(), 0);
  stm.RunAtomically([&](Transaction&) { flag.Set(1); });
  // Write-open cloned the whole unit: field words plus the 100 kB payload.
  EXPECT_GE(stm.stats().bytes_cloned.load(), 100'000);
}

TEST(AstmTest, ValidationWorkIsQuadraticInReadSet) {
  AstmStm stm;
  constexpr int kUnits = 200;
  std::vector<std::unique_ptr<Cell>> cells;
  for (int i = 0; i < kUnits; ++i) {
    cells.push_back(std::make_unique<Cell>(i));
  }
  stm.RunAtomically([&](Transaction&) {
    for (const auto& cell : cells) {
      cell->value.Get();
    }
  });
  // Each new read-open validates the whole list: 0 + 1 + ... + (k-1).
  const int64_t expected = static_cast<int64_t>(kUnits) * (kUnits - 1) / 2;
  EXPECT_GE(stm.stats().validation_steps.load(), expected);
}

TEST(AstmTest, AggressiveManagerKillsConflictingOwner) {
  AstmStm stm(MakeAggressiveManager());
  Cell cell(0);
  Cell heartbeat(0);
  std::atomic<bool> holder_inside{false};
  std::atomic<bool> release{false};

  std::thread holder([&] {
    bool first_attempt = true;
    stm.RunAtomically([&](Transaction&) {
      cell.value.Set(1);  // acquire ownership
      if (first_attempt) {
        first_attempt = false;
        holder_inside = true;
        // Park while owning so the rival must arbitrate. Keep making
        // transactional reads: a killed transaction notices the kill at its
        // next access (CheckAlive) and unwinds — as a real ASTM victim does.
        while (!release.load()) {
          heartbeat.value.Get();
          std::this_thread::yield();
        }
      }
    });
  });
  while (!holder_inside.load()) {
    std::this_thread::yield();
  }
  std::thread rival([&] {
    stm.RunAtomically([&](Transaction&) { cell.value.Set(2); });
    release = true;
  });
  rival.join();
  holder.join();
  EXPECT_GE(stm.stats().kills.load(), 1);
  // Both eventually commit (the holder retries after being killed).
  EXPECT_EQ(stm.stats().commits.load(), 2);
}

TEST(AstmTest, WordStmsDoNotPayCloneCosts) {
  for (const char* name : {"tl2", "tinystm", "mvstm"}) {
    auto stm = MakeStm(name);
    TmObject holder;
    TxText text(holder.unit(), std::string(50'000, 'y'));
    TxField<int64_t> flag(holder.unit(), 0);
    stm->RunAtomically([&](Transaction&) { flag.Set(1); });
    EXPECT_EQ(stm->stats().bytes_cloned.load(), 0) << name;
  }
}

}  // namespace
}  // namespace sb7
