// Unit and stress tests for the QSBR epoch-reclamation domain.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/ebr/ebr.h"

namespace sb7 {
namespace {

struct Tracked {
  explicit Tracked(std::atomic<int>& counter) : destroyed(counter) {}
  ~Tracked() { destroyed.fetch_add(1); }
  std::atomic<int>& destroyed;
};

// Announces and reclaims `rounds` times on the calling thread.
void QuiesceAndReclaim(EbrDomain& domain, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    domain.Quiesce();
    domain.TryReclaim();
  }
}

void WaitUntil(const std::atomic<int>& step, int value) {
  while (step.load() < value) {
    std::this_thread::yield();
  }
}

TEST(EbrTest, RetireDefersUntilQuiescence) {
  EbrDomain domain;
  std::atomic<int> destroyed{0};
  domain.Retire(new Tracked(destroyed),
                [](void* p) { delete static_cast<Tracked*>(p); });
  EXPECT_EQ(destroyed.load(), 0);
  // Advance epochs: each quiesce announces the current epoch; after enough
  // announcements the object's epoch is two behind and it is freed.
  for (int i = 0; i < 8; ++i) {
    domain.Quiesce();
    domain.TryReclaim();
  }
  EXPECT_EQ(destroyed.load(), 1);
  EXPECT_EQ(domain.PendingCount(), 0);
}

TEST(EbrTest, DrainAllFreesEverything) {
  EbrDomain domain;
  std::atomic<int> destroyed{0};
  for (int i = 0; i < 100; ++i) {
    domain.Retire(new Tracked(destroyed),
                  [](void* p) { delete static_cast<Tracked*>(p); });
  }
  EXPECT_EQ(domain.DrainAll(), 100);
  EXPECT_EQ(destroyed.load(), 100);
}

TEST(EbrTest, RetireObjectTemplateWorksWithConst) {
  EbrDomain domain;
  const std::string* retired = new std::string("payload");
  domain.RetireObject(retired);
  EXPECT_GE(domain.PendingCount(), 1);
  domain.DrainAll();
  EXPECT_EQ(domain.PendingCount(), 0);
}

TEST(EbrTest, DomainDestructorDrains) {
  std::atomic<int> destroyed{0};
  {
    EbrDomain domain;
    domain.Retire(new Tracked(destroyed),
                  [](void* p) { delete static_cast<Tracked*>(p); });
  }
  EXPECT_EQ(destroyed.load(), 1);
}

TEST(EbrTest, EpochAdvancesOnlyWhenAllThreadsQuiesce) {
  EbrDomain domain;
  domain.Quiesce();  // register main thread
  const uint64_t before = domain.global_epoch();

  std::atomic<bool> registered{false};
  std::atomic<bool> release{false};
  std::thread laggard([&] {
    domain.Quiesce();  // register and announce once
    registered = true;
    while (!release.load()) {
      std::this_thread::yield();  // never quiesce again while held
    }
    domain.Quiesce();
  });
  while (!registered.load()) {
    std::this_thread::yield();
  }
  // The laggard announced the epoch current at its registration; repeated
  // reclaim attempts may advance at most a bounded number of epochs past it.
  for (int i = 0; i < 10; ++i) {
    domain.Quiesce();
    domain.TryReclaim();
  }
  const uint64_t stalled = domain.global_epoch();
  EXPECT_LE(stalled - before, 2u);

  release = true;
  laggard.join();
  for (int i = 0; i < 4; ++i) {
    domain.Quiesce();
    domain.TryReclaim();
  }
  EXPECT_GT(domain.global_epoch(), stalled);
}

TEST(EbrTest, ThreadThatOnlyRetiresDoesNotHoldBackTheEpoch) {
  EbrDomain domain;
  domain.Quiesce();
  std::atomic<int> destroyed{0};
  std::atomic<int> step{0};
  constexpr int kRetired = 10;
  std::thread retirer([&] {
    // Registers on the first Retire and never quiesces: it stays offline.
    for (int i = 0; i < kRetired; ++i) {
      domain.RetireObject(new Tracked(destroyed));
    }
    step = 1;
    WaitUntil(step, 2);
    domain.TryReclaim();  // reclaiming works offline too
    step = 3;
  });
  WaitUntil(step, 1);
  const uint64_t before = domain.global_epoch();
  QuiesceAndReclaim(domain, 10);
  EXPECT_GT(domain.global_epoch() - before, 2u);

  step = 2;
  WaitUntil(step, 3);
  EXPECT_EQ(destroyed.load(), kRetired);
  EXPECT_EQ(domain.PendingCount(), 0);
  retirer.join();
}

TEST(EbrTest, OfflineReleasesALaggardUntilItsNextQuiesce) {
  EbrDomain domain;
  domain.Quiesce();
  std::atomic<int> step{0};
  std::thread laggard([&] {
    domain.Quiesce();
    step = 1;
    WaitUntil(step, 2);
    domain.Offline();
    step = 3;
    WaitUntil(step, 4);
    domain.Quiesce();
    step = 5;
    WaitUntil(step, 6);
  });

  WaitUntil(step, 1);
  uint64_t before = domain.global_epoch();
  QuiesceAndReclaim(domain, 10);
  EXPECT_LE(domain.global_epoch() - before, 2u) << "online laggard";

  step = 2;
  WaitUntil(step, 3);
  before = domain.global_epoch();
  QuiesceAndReclaim(domain, 10);
  EXPECT_GT(domain.global_epoch() - before, 2u) << "laggard offline";

  step = 4;
  WaitUntil(step, 5);
  before = domain.global_epoch();
  QuiesceAndReclaim(domain, 10);
  EXPECT_LE(domain.global_epoch() - before, 2u) << "laggard back online";

  step = 6;
  laggard.join();
}

struct Logged {
  int id;
  std::vector<int>* log;

  static void Delete(void* p) {
    auto* self = static_cast<Logged*>(p);
    self->log->push_back(self->id);
    delete self;
  }
};

TEST(EbrTest, ReclaimFreesTheSafePrefixInRetirementOrder) {
  EbrDomain domain;
  std::vector<int> freed;
  int next_id = 0;
  auto retire_three = [&] {
    for (int i = 0; i < 3; ++i) {
      domain.Retire(new Logged{next_id++, &freed}, &Logged::Delete);
    }
  };

  // This thread stays offline, so with nobody online each TryReclaim opens
  // one epoch.
  const uint64_t e0 = domain.global_epoch();
  retire_three();  // ids 0-2 at e0
  domain.TryReclaim();
  retire_three();  // ids 3-5 at e0 + 1
  domain.TryReclaim();
  ASSERT_EQ(domain.global_epoch(), e0 + 2);
  ASSERT_TRUE(freed.empty());

  std::atomic<int> step{0};
  std::thread laggard([&] {
    domain.Quiesce();  // announces e0 + 2, then holds it
    step = 1;
    WaitUntil(step, 2);
  });
  WaitUntil(step, 1);
  retire_three();  // ids 6-8 at e0 + 2
  for (int i = 0; i < 4; ++i) {
    domain.TryReclaim();
  }
  // The laggard lets the epoch open e0 + 3 and no further, and only what was
  // retired two epochs before its announcement is safe.
  EXPECT_EQ(domain.global_epoch(), e0 + 3);
  EXPECT_EQ(freed, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(domain.PendingCount(), 6);

  step = 2;
  laggard.join();
  EXPECT_EQ(domain.DrainAll(), 6);
  EXPECT_EQ(freed, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

// Published by the stress test's writer; the destructor clears the magic
// word a reader checks.
struct Node {
  static constexpr uint64_t kMagic = 0x5eb7'ebe0'f00d'cafeull;
  explicit Node(std::atomic<int>& counter) : destroyed(counter) {}
  ~Node() {
    magic.store(0);
    destroyed.fetch_add(1);
  }
  std::atomic<uint64_t> magic{kMagic};
  std::atomic<int>& destroyed;
};

// Readers follow a shared pointer the writer keeps replacing, and go offline
// every few iterations. A node freed while a reader can still reach it is a
// heap-use-after-free under ASan (and usually a wrong magic word without it).
TEST(EbrTest, ReadersNeverReachAFreedNode) {
  EbrDomain domain;
  std::atomic<int> destroyed{0};
  std::atomic<Node*> shared{new Node(destroyed)};
  std::atomic<bool> done{false};
  std::atomic<int64_t> bad_reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; !done.load(); ++i) {
        domain.Quiesce();
        const Node* node = shared.load();
        if (node->magic.load() != Node::kMagic) {
          bad_reads.fetch_add(1);
        }
        if (i % (3 + r) == 0) {
          domain.Offline();  // the next Quiesce comes back online
        }
      }
    });
  }

  constexpr int kSwaps = 200000;
  for (int i = 0; i < kSwaps; ++i) {
    domain.RetireObject(shared.exchange(new Node(destroyed)));
    domain.Quiesce();
  }
  done = true;
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_GT(destroyed.load(), 0) << "nothing was reclaimed during the swaps";
  domain.DrainAll();
  EXPECT_EQ(destroyed.load(), kSwaps);
  delete shared.load();
}

TEST(EbrTest, NoUseAfterFreeUnderConcurrentRetirement) {
  EbrDomain domain;
  std::atomic<int> destroyed{0};
  std::atomic<int64_t> created{0};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        domain.Retire(new Tracked(destroyed),
                      [](void* p) { delete static_cast<Tracked*>(p); });
        created.fetch_add(1);
        domain.Quiesce();
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  domain.DrainAll();
  EXPECT_EQ(destroyed.load(), created.load());
  EXPECT_EQ(domain.PendingCount(), 0);
}

TEST(EbrTest, ExitedThreadsLimboIsInherited) {
  EbrDomain domain;
  std::atomic<int> destroyed{0};
  std::thread worker([&] {
    for (int i = 0; i < 10; ++i) {
      domain.Retire(new Tracked(destroyed),
                    [](void* p) { delete static_cast<Tracked*>(p); });
    }
    // Thread exits without draining; its limbo must move to the orphan list.
  });
  worker.join();
  domain.DrainAll();
  EXPECT_EQ(destroyed.load(), 10);
}

}  // namespace
}  // namespace sb7
