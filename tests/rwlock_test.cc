// Tests for the writer-preferring reader-writer lock.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "src/sync/rwlock.h"

namespace sb7 {
namespace {

// A hold far past the lock's spin bound (tens of microseconds), so a thread
// waiting behind it parks and must be woken by the release.
constexpr auto kLongHold = std::chrono::milliseconds(50);
// Time given to a thread to reach its LockRead or LockWrite and register.
constexpr auto kSettle = std::chrono::milliseconds(100);
// A parked thread whose wake-up is lost never returns, so its join would
// hang; past this much time the process ends with a failure instead.
constexpr auto kWatchdog = std::chrono::seconds(20);

// Threads whose join is bounded by kWatchdog.
class WatchedThreads {
 public:
  template <typename Body>
  void Spawn(Body body) {
    threads_.emplace_back([this, body = std::move(body)] {
      body();
      finished_.fetch_add(1);
    });
  }

  void JoinAll() {
    const auto deadline = std::chrono::steady_clock::now() + kWatchdog;
    while (finished_.load() < static_cast<int>(threads_.size())) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "watchdog: %d of %zu threads still blocked after %llds "
                     "(a lost wake-up?)\n",
                     static_cast<int>(threads_.size()) - finished_.load(), threads_.size(),
                     static_cast<long long>(kWatchdog.count()));
        std::fflush(stderr);
        std::_Exit(EXIT_FAILURE);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (std::thread& thread : threads_) {
      thread.join();
    }
    threads_.clear();
  }

 private:
  std::vector<std::thread> threads_;
  std::atomic<int> finished_{0};
};

TEST(RwLockTest, WritersAreMutuallyExclusive) {
  RwLock lock;
  int64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        WriteGuard guard(lock);
        ++counter;  // data race unless exclusion holds
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(counter, static_cast<int64_t>(kThreads) * kIters);
  EXPECT_EQ(lock.write_acquisitions(), static_cast<int64_t>(kThreads) * kIters);
}

TEST(RwLockTest, ReadersExcludeWriters) {
  RwLock lock;
  std::atomic<int> readers_inside{0};
  std::atomic<int> writers_inside{0};
  std::atomic<bool> violation{false};
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      while (!stop.load()) {
        ReadGuard guard(lock);
        readers_inside.fetch_add(1);
        if (writers_inside.load() != 0) {
          violation = true;
        }
        readers_inside.fetch_sub(1);
      }
    });
  }
  workers.emplace_back([&] {
    for (int i = 0; i < 2'000; ++i) {
      WriteGuard guard(lock);
      writers_inside.fetch_add(1);
      if (readers_inside.load() != 0 || writers_inside.load() != 1) {
        violation = true;
      }
      writers_inside.fetch_sub(1);
    }
    stop = true;
  });
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_FALSE(violation.load());
}

TEST(RwLockTest, MultipleReadersShareTheLock) {
  RwLock lock;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::atomic<int> barrier{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kReaders; ++t) {
    workers.emplace_back([&] {
      ReadGuard guard(lock);
      const int now = concurrent.fetch_add(1) + 1;
      int snapshot = peak.load();
      while (snapshot < now && !peak.compare_exchange_weak(snapshot, now)) {
      }
      // Hold until every reader has arrived (they can all be inside).
      barrier.fetch_add(1);
      while (barrier.load() < kReaders) {
        std::this_thread::yield();
      }
      concurrent.fetch_sub(1);
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(peak.load(), kReaders);
}

TEST(RwLockTest, WriterNotStarvedByReaderStream) {
  RwLock lock;
  std::atomic<bool> writer_done{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        ReadGuard guard(lock);
      }
    });
  }
  std::thread writer([&] {
    WriteGuard guard(lock);
    writer_done = true;
  });
  writer.join();  // must complete despite the reader stream
  EXPECT_TRUE(writer_done.load());
  stop = true;
  for (std::thread& reader : readers) {
    reader.join();
  }
}

TEST(RwLockTest, LastReaderOutWakesAParkedWriter) {
  RwLock lock;
  constexpr int kReaders = 2;
  std::atomic<int> readers_in{0};
  std::atomic<int> readers_leaving{0};
  std::atomic<bool> writer_in{false};
  WatchedThreads threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.Spawn([&] {
      ReadGuard guard(lock);
      readers_in.fetch_add(1);
      std::this_thread::sleep_for(kLongHold);
      readers_leaving.fetch_add(1);
    });
  }
  while (readers_in.load() < kReaders) {
    std::this_thread::yield();
  }
  threads.Spawn([&] {
    WriteGuard guard(lock);
    writer_in = true;
    EXPECT_EQ(readers_leaving.load(), kReaders);  // only after both left
  });
  threads.JoinAll();
  EXPECT_TRUE(writer_in.load());
}

TEST(RwLockTest, UnlockWriteWakesEveryParkedReader) {
  RwLock lock;
  constexpr int kReaders = 3;
  std::atomic<int> arrived{0};
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::atomic<int> barrier{0};
  lock.LockWrite();
  WatchedThreads threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.Spawn([&] {
      arrived.fetch_add(1);
      ReadGuard guard(lock);
      const int now = concurrent.fetch_add(1) + 1;
      int snapshot = peak.load();
      while (snapshot < now && !peak.compare_exchange_weak(snapshot, now)) {
      }
      // Hold until every reader is inside: one left parked never arrives.
      barrier.fetch_add(1);
      while (barrier.load() < kReaders) {
        std::this_thread::yield();
      }
      concurrent.fetch_sub(1);
    });
  }
  while (arrived.load() < kReaders) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(kSettle);  // the readers spin out and park
  lock.UnlockWrite();
  threads.JoinAll();
  EXPECT_EQ(peak.load(), kReaders);
}

TEST(RwLockTest, ReaderArrivingBehindAWaitingWriterEntersAfterIt) {
  RwLock lock;
  std::atomic<int> sequence{0};
  std::atomic<int> writer_ticket{-1};
  std::atomic<int> late_reader_ticket{-1};
  std::atomic<bool> writer_started{false};
  std::atomic<bool> late_reader_started{false};
  lock.LockRead();  // an early reader holds the lock throughout
  WatchedThreads threads;
  threads.Spawn([&] {
    writer_started = true;
    WriteGuard guard(lock);
    writer_ticket = sequence.fetch_add(1);
  });
  while (!writer_started.load()) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(kSettle);  // the writer registers as waiting
  threads.Spawn([&] {
    late_reader_started = true;
    ReadGuard guard(lock);
    late_reader_ticket = sequence.fetch_add(1);
  });
  while (!late_reader_started.load()) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(kSettle);
  // Without writer preference the late reader would already be inside,
  // sharing the lock with the early one.
  EXPECT_EQ(late_reader_ticket.load(), -1);
  lock.UnlockRead();
  threads.JoinAll();
  EXPECT_EQ(writer_ticket.load(), 0);
  EXPECT_EQ(late_reader_ticket.load(), 1);
}

TEST(RwLockTest, MixedStressKeepsExclusionThroughSpinAndPark) {
  RwLock lock;
  constexpr int kThreads = 8;
  constexpr int kIters = 2'000;
  constexpr int kLongHoldEvery = 97;  // some holds outlast the spin bound
  constexpr auto kStressHold = std::chrono::microseconds(200);
  std::atomic<int> readers_inside{0};
  std::atomic<int> writers_inside{0};
  std::atomic<bool> violation{false};
  int64_t written = 0;  // guarded by the write lock
  std::atomic<int64_t> writes_expected{0};
  WatchedThreads threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.Spawn([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const bool long_hold = (i + 13 * t) % kLongHoldEvery == 0;
        if ((i + t) % 3 == 0) {
          WriteGuard guard(lock);
          if (writers_inside.fetch_add(1) != 0 || readers_inside.load() != 0) {
            violation = true;
          }
          ++written;
          if (long_hold) {
            std::this_thread::sleep_for(kStressHold);
          }
          writers_inside.fetch_sub(1);
          writes_expected.fetch_add(1);
        } else {
          ReadGuard guard(lock);
          readers_inside.fetch_add(1);
          if (writers_inside.load() != 0) {
            violation = true;
          }
          if (long_hold) {
            std::this_thread::sleep_for(kStressHold);
          }
          readers_inside.fetch_sub(1);
        }
      }
    });
  }
  threads.JoinAll();
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(written, writes_expected.load());
  EXPECT_EQ(lock.write_acquisitions(), writes_expected.load());
}

}  // namespace
}  // namespace sb7
