// Tests for TxVector/TxSet/TxBag and the three Index implementations,
// including parameterized sweeps across index kinds and STM-concurrent
// index stress.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/containers/skiplist_index.h"
#include "src/containers/snapshot_index.h"
#include "src/containers/std_map_index.h"
#include "src/containers/txvector.h"
#include "src/stm/stm_factory.h"

namespace sb7 {
namespace {

TEST(TxVectorTest, PushGetSetSize) {
  TxVector<int64_t> vec;
  EXPECT_TRUE(vec.Empty());
  for (int64_t i = 0; i < 100; ++i) {
    vec.PushBack(i * 10);
  }
  EXPECT_EQ(vec.Size(), 100);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(vec.Get(i), i * 10);
  }
  vec.Set(5, -1);
  EXPECT_EQ(vec.Get(5), -1);
}

TEST(TxVectorTest, GrowPreservesContents) {
  TxVector<int64_t> vec(/*initial_capacity=*/2);
  for (int64_t i = 0; i < 1000; ++i) {
    vec.PushBack(i);
  }
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(vec.Get(i), i);
  }
  EbrDomain::Global().DrainAll();  // retired chunks
}

TEST(TxVectorTest, RemoveAtSwapsLastIn) {
  TxVector<int64_t> vec;
  for (int64_t i = 0; i < 5; ++i) {
    vec.PushBack(i);
  }
  vec.RemoveAt(1);
  EXPECT_EQ(vec.Size(), 4);
  EXPECT_EQ(vec.Get(1), 4);  // last element swapped into the hole
  EXPECT_FALSE(vec.Contains(1));
}

TEST(TxVectorTest, RemoveFirstAndCount) {
  TxVector<int64_t> vec;
  vec.PushBack(7);
  vec.PushBack(8);
  vec.PushBack(7);
  EXPECT_EQ(vec.Count(7), 2);
  EXPECT_TRUE(vec.RemoveFirst(7));
  EXPECT_EQ(vec.Count(7), 1);
  EXPECT_TRUE(vec.RemoveFirst(7));
  EXPECT_FALSE(vec.RemoveFirst(7));
  EXPECT_EQ(vec.Size(), 1);
}

TEST(TxVectorTest, ForEachEarlyStop) {
  TxVector<int64_t> vec;
  for (int64_t i = 0; i < 10; ++i) {
    vec.PushBack(i);
  }
  int64_t visited = 0;
  vec.ForEach([&](int64_t value) {
    ++visited;
    return value < 4;  // stop after seeing 4
  });
  EXPECT_EQ(visited, 5);
}

TEST(TxVectorTest, ClearResetsSize) {
  TxVector<int64_t> vec;
  vec.PushBack(1);
  vec.PushBack(2);
  vec.Clear();
  EXPECT_TRUE(vec.Empty());
  vec.PushBack(9);
  EXPECT_EQ(vec.Get(0), 9);
}

TEST(TxVectorTest, TransactionalGrowRollsBackOnAbort) {
  auto stm = MakeStm("tl2");
  TxVector<int64_t> vec(/*initial_capacity=*/2);
  vec.PushBack(1);
  vec.PushBack(2);
  struct Bail {};
  // Abort after a grow: size and contents must be untouched, and the fresh
  // chunk must be freed (abort hook).
  EXPECT_THROW(stm->RunAtomically([&](Transaction& tx) {
                 vec.PushBack(3);  // triggers grow 2 -> 4
                 // Simulate an op that fails but cannot commit: force a real
                 // abort by throwing TxAborted through the body exactly once.
                 static thread_local bool first = true;
                 if (first) {
                   first = false;
                   throw TxAborted{};
                 }
                 (void)tx;
                 throw Bail{};  // commit-and-propagate on the retry
               }),
               Bail);
  // After the aborted first attempt and the committed retry, contents hold.
  EXPECT_EQ(vec.Size(), 3);
  EXPECT_EQ(vec.Get(2), 3);
}

TEST(TxSetTest, AddIsUnique) {
  TxSet<int64_t> set;
  EXPECT_TRUE(set.Add(1));
  EXPECT_FALSE(set.Add(1));
  EXPECT_TRUE(set.Add(2));
  EXPECT_EQ(set.Size(), 2);
  EXPECT_TRUE(set.Remove(1));
  EXPECT_FALSE(set.Contains(1));
}

TEST(TxBagTest, AllowsDuplicates) {
  TxBag<int64_t> bag;
  bag.Add(5);
  bag.Add(5);
  EXPECT_EQ(bag.Count(5), 2);
  EXPECT_TRUE(bag.RemoveOne(5));
  EXPECT_EQ(bag.Count(5), 1);
}

// --- Index implementations, swept over all three kinds ---

enum class Kind { kStdMap, kSnapshot, kSkipList };

std::unique_ptr<Index<int64_t, int64_t*>> MakeIntIndex(Kind kind) {
  switch (kind) {
    case Kind::kStdMap:
      return std::make_unique<StdMapIndex<int64_t, int64_t*>>();
    case Kind::kSnapshot:
      return std::make_unique<SnapshotIndex<int64_t, int64_t*>>();
    case Kind::kSkipList:
      return std::make_unique<SkipListIndex<int64_t, int64_t*>>();
  }
  return nullptr;
}

class IndexTest : public ::testing::TestWithParam<Kind> {};

TEST_P(IndexTest, InsertLookupRemove) {
  auto index = MakeIntIndex(GetParam());
  int64_t values[10];
  for (int64_t i = 0; i < 10; ++i) {
    values[i] = i * 100;
    EXPECT_TRUE(index->Insert(i, &values[i]));
  }
  EXPECT_EQ(index->Size(), 10);
  EXPECT_EQ(index->Lookup(3), &values[3]);
  EXPECT_EQ(index->Lookup(99), nullptr);
  EXPECT_FALSE(index->Insert(3, &values[4]));  // replace
  EXPECT_EQ(index->Lookup(3), &values[4]);
  EXPECT_TRUE(index->Remove(3));
  EXPECT_FALSE(index->Remove(3));
  EXPECT_EQ(index->Lookup(3), nullptr);
  EXPECT_EQ(index->Size(), 9);
}

TEST_P(IndexTest, RangeIsInclusiveAndOrdered) {
  auto index = MakeIntIndex(GetParam());
  int64_t value = 0;
  for (int64_t key : {10, 20, 30, 40, 50}) {
    index->Insert(key, &value);
  }
  std::vector<int64_t> seen;
  index->Range(20, 40, [&seen](const int64_t& key, int64_t* const&) {
    seen.push_back(key);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int64_t>{20, 30, 40}));
}

TEST_P(IndexTest, RangeEarlyStop) {
  auto index = MakeIntIndex(GetParam());
  int64_t value = 0;
  for (int64_t key = 0; key < 100; ++key) {
    index->Insert(key, &value);
  }
  int64_t visited = 0;
  index->Range(0, 99, [&visited](const int64_t&, int64_t* const&) {
    return ++visited < 5;
  });
  EXPECT_EQ(visited, 5);
}

TEST_P(IndexTest, ForEachVisitsAllInOrder) {
  auto index = MakeIntIndex(GetParam());
  int64_t value = 0;
  for (int64_t key : {5, 1, 9, 3, 7}) {
    index->Insert(key, &value);
  }
  std::vector<int64_t> seen;
  index->ForEach([&seen](const int64_t& key, int64_t* const&) {
    seen.push_back(key);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 3, 5, 7, 9}));
}

TEST_P(IndexTest, LargeRandomWorkloadMatchesStdMap) {
  auto index = MakeIntIndex(GetParam());
  std::map<int64_t, int64_t*> model;
  int64_t value = 0;
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    const int64_t key = static_cast<int64_t>(rng.NextBounded(500));
    switch (rng.NextBounded(3)) {
      case 0:
        EXPECT_EQ(index->Insert(key, &value), model.insert_or_assign(key, &value).second);
        break;
      case 1:
        EXPECT_EQ(index->Remove(key), model.erase(key) > 0);
        break;
      default: {
        auto it = model.find(key);
        EXPECT_EQ(index->Lookup(key), it == model.end() ? nullptr : it->second);
        break;
      }
    }
  }
  EXPECT_EQ(index->Size(), static_cast<int64_t>(model.size()));
  EbrDomain::Global().DrainAll();
}

INSTANTIATE_TEST_SUITE_P(AllKinds, IndexTest,
                         ::testing::Values(Kind::kStdMap, Kind::kSnapshot, Kind::kSkipList),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           switch (info.param) {
                             case Kind::kStdMap:
                               return "stdmap";
                             case Kind::kSnapshot:
                               return "snapshot";
                             case Kind::kSkipList:
                               return "skiplist";
                           }
                           return "unknown";
                         });

// --- STM-concurrent container behaviour ---

using StmKindParam = std::tuple<const char*, Kind>;

class TxIndexStress : public ::testing::TestWithParam<StmKindParam> {};

TEST_P(TxIndexStress, ConcurrentInsertsAndRemovesStayConsistent) {
  const auto [stm_name, kind] = GetParam();
  auto stm = MakeStm(stm_name);
  auto index = MakeIntIndex(kind);
  static int64_t value = 0;

  // Each thread owns a disjoint key range; inserts then removes half of it.
  constexpr int kThreads = 4;
  constexpr int64_t kPerThread = 300;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const int64_t base = t * kPerThread;
      for (int64_t k = 0; k < kPerThread; ++k) {
        stm->RunAtomically([&](Transaction&) { index->Insert(base + k, &value); });
        EbrDomain::Global().Quiesce();
      }
      for (int64_t k = 0; k < kPerThread; k += 2) {
        stm->RunAtomically([&](Transaction&) { index->Remove(base + k); });
        EbrDomain::Global().Quiesce();
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(index->Size(), kThreads * kPerThread / 2);
  for (int t = 0; t < kThreads; ++t) {
    const int64_t base = t * kPerThread;
    for (int64_t k = 0; k < kPerThread; ++k) {
      ASSERT_EQ(index->Lookup(base + k) != nullptr, k % 2 == 1);
    }
  }
}

std::string StmKindParamName(const ::testing::TestParamInfo<StmKindParam>& info) {
  const auto [stm_name, kind] = info.param;
  std::string name = stm_name;
  name += kind == Kind::kSnapshot ? "_snapshot" : "_skiplist";
  return name;
}

INSTANTIATE_TEST_SUITE_P(StmByKind, TxIndexStress,
                         ::testing::Combine(::testing::Values("tl2", "tinystm", "astm"),
                                            ::testing::Values(Kind::kSnapshot,
                                                              Kind::kSkipList)),
                         StmKindParamName);

TEST(TxVectorStmTest, ConcurrentPushesAllLand) {
  auto stm = MakeStm("tl2");
  TxVector<int64_t> vec;
  constexpr int kThreads = 4;
  constexpr int64_t kPerThread = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int64_t i = 0; i < kPerThread; ++i) {
        stm->RunAtomically([&](Transaction&) { vec.PushBack(t * kPerThread + i); });
        EbrDomain::Global().Quiesce();
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  ASSERT_EQ(vec.Size(), kThreads * kPerThread);
  std::vector<bool> seen(kThreads * kPerThread, false);
  for (int64_t i = 0; i < vec.Size(); ++i) {
    const int64_t value = vec.Get(i);
    ASSERT_GE(value, 0);
    ASSERT_LT(value, kThreads * kPerThread);
    ASSERT_FALSE(seen[value]) << "duplicate element";
    seen[value] = true;
  }
}

// --- stale-capacity / off-by-one audit regressions (the "printContents"
// bug class: iteration or access bounded by chunk capacity instead of the
// logical size reads elements that no longer exist) ---

TEST(TxVectorAuditTest, RemovedElementsAreNeverVisibleThroughAnyAccessor) {
  TxVector<int64_t> vec;
  for (int64_t i = 0; i < 6; ++i) {
    vec.PushBack(i);
  }
  vec.RemoveAt(2);  // swaps 5 into slot 2; slot 5 keeps a stale copy of 5
  EXPECT_EQ(vec.Size(), 5);
  EXPECT_FALSE(vec.Contains(2));
  EXPECT_EQ(vec.Count(5), 1);  // the stale trailing copy must not be counted
  int64_t visited = 0;
  int64_t sum = 0;
  vec.ForEach([&](int64_t value) {
    ++visited;
    sum += value;
    return true;
  });
  EXPECT_EQ(visited, vec.Size());
  EXPECT_EQ(sum, 0 + 1 + 5 + 3 + 4);
}

TEST(TxVectorAuditTest, ClearedElementsAreNeverVisible) {
  TxVector<int64_t> vec(/*initial_capacity=*/2);
  for (int64_t i = 0; i < 7; ++i) {
    vec.PushBack(100 + i);
  }
  vec.Clear();
  EXPECT_EQ(vec.Size(), 0);
  EXPECT_FALSE(vec.Contains(103));
  EXPECT_EQ(vec.Count(100), 0);
  int64_t visited = 0;
  vec.ForEach([&visited](int64_t) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 0);
  // Refilling reuses the slots; only the fresh prefix is visible.
  vec.PushBack(-1);
  EXPECT_EQ(vec.Size(), 1);
  EXPECT_EQ(vec.Get(0), -1);
  EXPECT_FALSE(vec.Contains(106));  // stale slot beyond the new size
  EbrDomain::Global().DrainAll();
}

TEST(TxVectorAuditTest, GrowAtExactCapacityBoundariesPreservesEveryPrefix) {
  TxVector<int64_t> vec(/*initial_capacity=*/1);
  for (int64_t i = 0; i < 33; ++i) {  // crosses 1->2->4->8->16->32->64
    vec.PushBack(i * 7);
    for (int64_t j = 0; j <= i; ++j) {
      ASSERT_EQ(vec.Get(j), j * 7) << "after push " << i;
    }
  }
  EbrDomain::Global().DrainAll();
}

TEST(TxVectorAuditTest, RemoveLastLeavesPrefixIntact) {
  TxVector<int64_t> vec;
  for (int64_t i = 0; i < 4; ++i) {
    vec.PushBack(i);
  }
  vec.RemoveAt(3);  // no swap: removing the last element
  EXPECT_EQ(vec.Size(), 3);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(vec.Get(i), i);
  }
  EXPECT_FALSE(vec.Contains(3));
}

TEST(IndexAuditTest, SkipListReinsertAfterRemoveKeepsOrderAndSize) {
  SkipListIndex<int64_t, int64_t*> index;
  int64_t value = 0;
  for (int64_t key : {2, 4, 6, 8}) {
    index.Insert(key, &value);
  }
  EXPECT_TRUE(index.Remove(4));
  EXPECT_TRUE(index.Insert(4, &value));  // fresh node, same key
  EXPECT_EQ(index.Size(), 4);
  std::vector<int64_t> seen;
  index.ForEach([&seen](const int64_t& key, int64_t* const&) {
    seen.push_back(key);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int64_t>{2, 4, 6, 8}));
  EbrDomain::Global().DrainAll();
}

TEST(IndexAuditTest, TransactionalRemoveOfAbsentKeyCommitsNothing) {
  // The snapshot index's transactional remove must not clone-and-publish
  // when the key is absent; the skip list must not unlink anything.
  auto stm = MakeStm("tl2");
  for (int kind = 0; kind < 2; ++kind) {
    std::unique_ptr<Index<int64_t, int64_t*>> index;
    if (kind == 0) {
      index = std::make_unique<SnapshotIndex<int64_t, int64_t*>>();
    } else {
      index = std::make_unique<SkipListIndex<int64_t, int64_t*>>();
    }
    int64_t value = 0;
    index->Insert(1, &value);
    bool removed = true;
    stm->RunAtomically([&](Transaction&) { removed = index->Remove(99); });
    EXPECT_FALSE(removed) << kind;
    EXPECT_EQ(index->Size(), 1) << kind;
    EXPECT_EQ(index->Lookup(1), &value) << kind;
  }
  EbrDomain::Global().DrainAll();
}

// Lookup, Range and ForEach must all find exactly `keys` (sorted), each
// mapped to 3 * key.
void ExpectSkipListHolds(const SkipListIndex<int64_t, int64_t>& index,
                         const std::set<int64_t>& keys) {
  for (const int64_t key : keys) {
    ASSERT_EQ(index.Lookup(key), 3 * key) << key;
    int64_t hits = 0;
    index.Range(key, key, [&](const int64_t& found, const int64_t&) {
      EXPECT_EQ(found, key);
      ++hits;
      return true;
    });
    ASSERT_EQ(hits, 1) << key;
  }
  const std::vector<int64_t> want(keys.begin(), keys.end());
  std::vector<int64_t> via_for_each;
  index.ForEach([&](const int64_t& key, const int64_t& value) {
    EXPECT_EQ(value, 3 * key);
    via_for_each.push_back(key);
    return true;
  });
  EXPECT_EQ(via_for_each, want);
  std::vector<int64_t> via_range;
  index.Range(std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
              [&](const int64_t& key, const int64_t&) {
                via_range.push_back(key);
                return true;
              });
  EXPECT_EQ(via_range, want);
}

TEST(IndexAuditTest, SkipListFindsEveryKeyAfterItsLevelRises) {
  // Searches start at the list level, so a node taller than every node
  // before it must be linked on the new levels from the head, and the keys
  // already present must stay reachable from the higher start.
  SkipListIndex<int64_t, int64_t> index;
  EXPECT_EQ(index.Level(), 1);
  std::set<int64_t> keys;
  int rises_while_populated = 0;
  constexpr int64_t kKeys = 3001;  // prime: i * 7919 % kKeys shuffles [0, kKeys)
  for (int64_t i = 0; i < kKeys; ++i) {
    const int64_t key = i * 7919 % kKeys;
    const int level = index.Level();
    ASSERT_TRUE(index.Insert(key, 3 * key));
    keys.insert(key);
    ASSERT_GE(index.Level(), level);  // the level never shrinks
    if (index.Level() > level && i > 0) {
      ++rises_while_populated;
      ExpectSkipListHolds(index, keys);
    }
  }
  EXPECT_GE(rises_while_populated, 3);
  const int top = index.Level();
  for (int64_t key = 0; key < kKeys; key += 2) {
    keys.erase(key);
    ASSERT_TRUE(index.Remove(key)) << key;
    ASSERT_EQ(index.Lookup(key), 0) << key;
  }
  EXPECT_EQ(index.Level(), top);
  EXPECT_EQ(index.Size(), static_cast<int64_t>(keys.size()));
  ExpectSkipListHolds(index, keys);
  EbrDomain::Global().DrainAll();
}

// A key's node height: the level of a list that holds only that key.
int HeightOf(int64_t key) {
  SkipListIndex<int64_t, int64_t> probe;
  probe.Insert(key, 0);
  return probe.Level();
}

TEST(IndexAuditTest, AbortedLevelRiseLeavesLevelAndContentsUnchanged) {
  auto stm = MakeStm("tl2");
  SkipListIndex<int64_t, int64_t> index;
  std::set<int64_t> keys;
  for (int64_t key = 0; keys.size() < 8; ++key) {
    if (HeightOf(key) == 1) {
      index.Insert(key, 3 * key);
      keys.insert(key);
    }
  }
  ASSERT_EQ(index.Level(), 1);
  int64_t tall = *keys.rbegin() + 1;
  while (HeightOf(tall) == 1) {
    ++tall;
  }
  int attempts = 0;
  stm->RunAtomically([&](Transaction&) {
    if (++attempts == 1) {
      ASSERT_TRUE(index.Insert(tall, 3 * tall));
      ASSERT_GT(index.Level(), 1);  // the attempt sees its own rise
      throw TxAborted{};
    }
    // The retry sees the state the aborted attempt started from.
    EXPECT_EQ(index.Level(), 1);
    EXPECT_EQ(index.Lookup(tall), 0);
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(index.Level(), 1);
  EXPECT_EQ(index.Lookup(tall), 0);
  EXPECT_EQ(index.Size(), static_cast<int64_t>(keys.size()));
  ExpectSkipListHolds(index, keys);
  // A committed rise sticks, and the new node is found from the new top.
  stm->RunAtomically([&](Transaction&) { index.Insert(tall, 3 * tall); });
  keys.insert(tall);
  EXPECT_GT(index.Level(), 1);
  ExpectSkipListHolds(index, keys);
  EbrDomain::Global().DrainAll();
}

TEST(IndexAuditTest, DateKeyHelpersRoundTripAtTheIdBoundaries) {
  // The date index emulates a multimap with (date, id) composite keys; an
  // off-by-one in the bounds would leak adjacent dates into range scans.
  const int64_t date = 2007;
  for (const int64_t id : {int64_t{0}, int64_t{1}, int64_t{0x7fffffff}, int64_t{0xffffffff}}) {
    const int64_t key = MakeDateKey(date, id);
    EXPECT_EQ(DateKeyDate(key), date) << id;
    EXPECT_GE(key, DateKeyLowerBound(date)) << id;
    EXPECT_LE(key, DateKeyUpperBound(date)) << id;
  }
  EXPECT_LT(DateKeyUpperBound(date), DateKeyLowerBound(date + 1));
  EXPECT_GT(DateKeyLowerBound(date), DateKeyUpperBound(date - 1));
  // A range scan keyed on one date sees exactly that date's entries.
  StdMapIndex<int64_t, int64_t*> index;
  int64_t value = 0;
  for (int64_t d = date - 1; d <= date + 1; ++d) {
    for (int64_t id = 0; id < 3; ++id) {
      index.Insert(MakeDateKey(d, id), &value);
    }
  }
  int64_t seen = 0;
  index.Range(DateKeyLowerBound(date), DateKeyUpperBound(date),
              [&seen](const int64_t& key, int64_t* const&) {
                EXPECT_EQ(DateKeyDate(key), 2007);
                ++seen;
                return true;
              });
  EXPECT_EQ(seen, 3);
}

}  // namespace
}  // namespace sb7
