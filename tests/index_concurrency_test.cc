// Concurrent index iteration under STM: skiplist_index and snapshot_index
// are iterated (ForEach / Range) while structure-modifying transactions keep
// moving keys with Index::Move, under tl2 and under mvstm (whose read-only
// snapshot path is exactly what long iterations exercise), and the skip
// list also under tinystm. Every observation is checked against the
// indexes' invariants, and the final structure is pinned with the oracle
// fingerprint (src/check/fingerprint.h) computed through two independent
// iteration paths.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/check/fingerprint.h"
#include "src/common/rng.h"
#include "src/containers/skiplist_index.h"
#include "src/containers/snapshot_index.h"
#include "src/stm/stm_factory.h"

namespace sb7 {
namespace {

constexpr int64_t kKeys = 256;  // even keys 0, 2, ..., 2*(kKeys-1)

std::unique_ptr<Index<int64_t, int64_t>> MakeIndexKind(const std::string& kind) {
  if (kind == "skiplist") {
    return std::make_unique<SkipListIndex<int64_t, int64_t>>();
  }
  return std::make_unique<SnapshotIndex<int64_t, int64_t>>();
}

// Every key carries value == 3 * key, and exactly one of each {even, odd}
// twin pair is present — writers move keys between twins transactionally, so
// any consistent snapshot holds exactly kKeys entries.
void SeedIndex(Index<int64_t, int64_t>& index) {
  for (int64_t i = 0; i < kKeys; ++i) {
    index.Insert(2 * i, 6 * i);
  }
}

uint64_t FingerprintViaForEach(const Index<int64_t, int64_t>& index) {
  return FingerprintIndex(
      index, [](const int64_t& key) { return static_cast<uint64_t>(key); },
      [](const int64_t& value) { return static_cast<uint64_t>(value); });
}

uint64_t FingerprintViaRange(const Index<int64_t, int64_t>& index) {
  uint64_t sum = 0;
  int64_t entries = 0;
  index.Range(std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
              [&](const int64_t& key, const int64_t& value) {
                // Mirrors FingerprintIndex's per-entry fold.
                sum += MixHash(MixHash(static_cast<uint64_t>(key)) ^
                               MixHash(static_cast<uint64_t>(value) +
                                       0x517cc1b727220a95ull));
                ++entries;
                return true;
              });
  return MixHash(sum ^ MixHash(static_cast<uint64_t>(entries) + 0x9e3779b9ull));
}

struct Params {
  const char* stm;
  const char* index;
};

class IndexConcurrencyTest : public ::testing::TestWithParam<Params> {};

TEST_P(IndexConcurrencyTest, IterationDuringStructureModsSeesConsistentSnapshots) {
  auto index = MakeIndexKind(GetParam().index);
  SeedIndex(*index);
  auto stm = MakeStm(GetParam().stm);
  ASSERT_NE(stm, nullptr);
  const bool snapshot_reads = std::string(GetParam().stm) == "mvstm";

  constexpr int kWriters = 2;
  constexpr int kIterators = 2;
  constexpr int kMovesPerWriter = 400;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> torn_iterations{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(1234 + w);
      for (int i = 0; i < kMovesPerWriter; ++i) {
        const int64_t pair = static_cast<int64_t>(rng.NextBounded(kKeys));
        const int64_t even = 2 * pair;
        const int64_t odd = even + 1;
        stm->RunAtomically([&](Transaction&) {
          // Move whichever twin is present to the other, atomically,
          // preserving the count. Every other attempt first moves it there
          // and back twice, which re-keys the node the attempt built.
          int64_t from = -1;
          index->Range(even, odd, [&](const int64_t& key, const int64_t&) {
            from = key;
            return false;
          });
          if (from < 0) {
            return;
          }
          const int64_t to = from == even ? odd : even;
          if (i % 2 == 1) {
            for (int round = 0; round < 2; ++round) {
              index->Move(from, to, 3 * to);
              index->Move(to, from, 3 * from);
            }
          }
          index->Move(from, to, 3 * to);
        });
        EbrDomain::Global().Quiesce();
      }
    });
  }
  for (int r = 0; r < kIterators; ++r) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        int64_t entries = 0;
        bool values_ok = true;
        stm->RunAtomically(
            [&](Transaction&) {
              entries = 0;
              values_ok = true;
              index->ForEach([&](const int64_t& key, const int64_t& value) {
                if (value != 3 * key) {
                  values_ok = false;
                }
                ++entries;
                return true;
              });
            },
            /*read_only=*/snapshot_reads);
        if (entries != kKeys || !values_ok) {
          torn_iterations.fetch_add(1, std::memory_order_relaxed);
        }
        EbrDomain::Global().Quiesce();
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads[w].join();
  }
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) {
    threads[t].join();
  }

  EXPECT_EQ(torn_iterations.load(), 0)
      << "an iteration observed a half-applied key move";
  // Quiescent fingerprint: two independent iteration paths must agree, and
  // the invariants must hold exactly.
  EXPECT_EQ(FingerprintViaForEach(*index), FingerprintViaRange(*index));
  EXPECT_EQ(index->Size(), kKeys);
  int64_t present = 0;
  index->ForEach([&](const int64_t& key, const int64_t& value) {
    EXPECT_EQ(value, 3 * key);
    ++present;
    return true;
  });
  EXPECT_EQ(present, kKeys);
  if (snapshot_reads) {
    EXPECT_EQ(stm->stats().ro_aborts.load(), 0)
        << "mvstm snapshot iterations must be abort-free";
  }
  EbrDomain::Global().DrainAll();
}

INSTANTIATE_TEST_SUITE_P(
    StmsAndIndexes, IndexConcurrencyTest,
    ::testing::Values(Params{"tl2", "skiplist"}, Params{"tl2", "snapshot"},
                      Params{"mvstm", "skiplist"}, Params{"mvstm", "snapshot"},
                      // tinystm links the node an attempt builds in place,
                      // under held locks: re-keying it leans on readers
                      // never using a value they loaded from a locked field.
                      Params{"tinystm", "skiplist"}),
    [](const ::testing::TestParamInfo<Params>& info) {
      return std::string(info.param.stm) + "_" + info.param.index;
    });

// Range scans while the skip list's level rises: the index starts empty and
// one writer links pairs of keys {k, k + kOffset} in one transaction each,
// so the list level climbs as taller nodes arrive. Every scan must be sorted
// and hold whole pairs only, and the final list must hold every key.
class LevelRiseTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LevelRiseTest, RangeScansSeeConsistentSnapshotsWhileTheLevelRises) {
  SkipListIndex<int64_t, int64_t> index;
  auto stm = MakeStm(GetParam());
  ASSERT_NE(stm, nullptr);
  const bool snapshot_reads = std::string(GetParam()) == "mvstm";
  constexpr int64_t kPairs = 600;
  constexpr int64_t kOffset = 1 << 20;
  constexpr int kReaders = 2;
  std::atomic<bool> stop{false};
  std::atomic<int> readers_started{0};
  std::atomic<int64_t> bad_scans{0};
  std::atomic<int64_t> partial_scans{0};

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    while (readers_started.load() < kReaders) {
      std::this_thread::yield();
    }
    for (int64_t i = 0; i < kPairs; ++i) {
      const int64_t key = (i * 7919) % kPairs;  // a fixed shuffle
      stm->RunAtomically([&](Transaction&) {
        index.Insert(key, i);
        index.Insert(key + kOffset, i);
      });
      EbrDomain::Global().Quiesce();
      // Leave room between inserts: a tl2 scan that overlaps one aborts.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    EbrDomain::Global().Offline();
  });
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      bool first = true;
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<std::pair<int64_t, int64_t>> seen;
        stm->RunAtomically(
            [&](Transaction&) {
              seen.clear();
              index.Range(std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max(),
                          [&](const int64_t& key, const int64_t& value) {
                            seen.emplace_back(key, value);
                            return true;
                          });
            },
            /*read_only=*/snapshot_reads);
        EbrDomain::Global().Quiesce();
        // Sorted, and the low half pairs up with the high half in order.
        bool ok = seen.size() % 2 == 0;
        const size_t half = seen.size() / 2;
        for (size_t i = 0; ok && i < seen.size(); ++i) {
          ok = (i == 0 || seen[i - 1].first < seen[i].first) &&
               (i < half ? seen[i].first < kOffset : seen[i].first >= kOffset);
        }
        for (size_t i = 0; ok && i < half; ++i) {
          ok = seen[i + half].first == seen[i].first + kOffset &&
               seen[i + half].second == seen[i].second;
        }
        if (!ok) {
          bad_scans.fetch_add(1, std::memory_order_relaxed);
        }
        if (!seen.empty() && seen.size() < 2 * kPairs) {
          partial_scans.fetch_add(1, std::memory_order_relaxed);
        }
        if (first) {
          first = false;
          readers_started.fetch_add(1);
        }
      }
      EbrDomain::Global().Offline();
    });
  }
  threads[0].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = 1; t < threads.size(); ++t) {
    threads[t].join();
  }

  EXPECT_GT(partial_scans.load(), 0) << "no scan overlapped the inserts";
  EXPECT_EQ(bad_scans.load(), 0) << "a scan saw an unsorted or half-applied state";
  EXPECT_GT(index.Level(), 2);
  EXPECT_EQ(index.Size(), 2 * kPairs);
  if (snapshot_reads) {
    EXPECT_EQ(stm->stats().ro_aborts.load(), 0)
        << "mvstm snapshot scans must be abort-free";
  }
  EbrDomain::Global().DrainAll();
}

INSTANTIATE_TEST_SUITE_P(Stms, LevelRiseTest, ::testing::Values("tl2", "mvstm"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// The oracle fingerprint is also what makes single-threaded runs comparable
// across backends: the same deterministic key-move sequence applied under
// tl2 and under mvstm must fingerprint identically.
TEST(IndexCrossBackendTest, DeterministicMoveSequenceFingerprintsEqually) {
  for (const char* kind : {"skiplist", "snapshot"}) {
    uint64_t fingerprints[2] = {0, 0};
    int backend = 0;
    for (const char* stm_name : {"tl2", "mvstm"}) {
      auto index = MakeIndexKind(kind);
      SeedIndex(*index);
      auto stm = MakeStm(stm_name);
      Rng rng(42);
      for (int i = 0; i < 500; ++i) {
        const int64_t pair = static_cast<int64_t>(rng.NextBounded(kKeys));
        const int64_t even = 2 * pair;
        const int64_t odd = even + 1;
        stm->RunAtomically([&](Transaction&) {
          if (index->Remove(even)) {
            index->Insert(odd, 3 * odd);
          } else if (index->Remove(odd)) {
            index->Insert(even, 3 * even);
          }
        });
        EbrDomain::Global().Quiesce();
      }
      fingerprints[backend++] = FingerprintViaForEach(*index);
      EbrDomain::Global().DrainAll();
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]) << kind;
  }
}

}  // namespace
}  // namespace sb7
