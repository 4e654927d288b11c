// Reader-writer lock with writer preference.
//
// The paper's locking strategies use `java.util.concurrent` read-write locks;
// this is the C++ counterpart, self-contained so its queueing behaviour is
// known. Writer preference with reader batching: once a writer is waiting,
// newly arriving readers queue behind it, which prevents writer starvation
// under the read-dominated workloads while still admitting whole batches of
// readers between writers.
//
// The whole lock is one atomic state word (writer bit, waiting-writer count,
// reader count), so an uncontended acquire is one CAS and a release one
// read-modify-write, with no mutex on either. A contended acquirer spins on
// the word for about one short operation (kSpinBound in rwlock.cc) and then
// parks on a mutex and condition variable; a release takes that mutex only
// when the sleeper count says a thread parks. docs/ANALYSIS.md ("The lock
// handoff") states why no wake-up is lost.
//
// Not recursive: a thread must not re-acquire a lock it already holds in
// either mode. The medium-grained strategy acquires its lock set in a fixed
// global order precisely so that this never happens (MediumLockStrategy in
// src/strategy/strategy.{h,cc}).

#ifndef STMBENCH7_SRC_SYNC_RWLOCK_H_
#define STMBENCH7_SRC_SYNC_RWLOCK_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace sb7 {

class RwLock {
 public:
  RwLock() = default;
  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  void LockRead();
  void UnlockRead();
  void LockWrite();
  void UnlockWrite();

  // Write acquisitions so far; exact once the writers are joined, and meant
  // for reports and tests, not for reading while writers run.
  int64_t write_acquisitions() const { return write_acquisitions_; }

 private:
  // Takes the lock with the CAS `state + delta` unless a bit of `blocking`
  // is set in the state word.
  bool TryAcquire(uint64_t blocking, uint64_t delta);
  // Retries TryAcquire, parking whenever a spin of kSpinBound ends with the
  // lock still unavailable.
  void AcquireContended(uint64_t blocking, uint64_t delta);
  // Sleeps until the bits of `blocking` clear in the state word.
  void Park(uint64_t blocking);
  // Wakes every parked thread, if the sleeper count says there is one.
  void WakeSleepers();

  // The state word and the sleeper count share one cache line, so the
  // release's load of the count touches no second line.
  alignas(64) std::atomic<uint64_t> state_{0};
  std::atomic<uint32_t> sleepers_{0};
  int64_t write_acquisitions_ = 0;  // written only under the write lock
  std::mutex park_mu_;
  std::condition_variable park_cv_;
};

// RAII guards.
class ReadGuard {
 public:
  explicit ReadGuard(RwLock& lock) : lock_(lock) { lock_.LockRead(); }
  ~ReadGuard() { lock_.UnlockRead(); }
  ReadGuard(const ReadGuard&) = delete;
  ReadGuard& operator=(const ReadGuard&) = delete;

 private:
  RwLock& lock_;
};

class WriteGuard {
 public:
  explicit WriteGuard(RwLock& lock) : lock_(lock) { lock_.LockWrite(); }
  ~WriteGuard() { lock_.UnlockWrite(); }
  WriteGuard(const WriteGuard&) = delete;
  WriteGuard& operator=(const WriteGuard&) = delete;

 private:
  RwLock& lock_;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_SYNC_RWLOCK_H_
