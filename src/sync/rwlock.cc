#include "src/sync/rwlock.h"

#include <chrono>

#include "src/common/diag.h"

namespace sb7 {
namespace {

using Clock = std::chrono::steady_clock;

// The state word: bit 0 is set while a writer holds the lock, bits 1-31
// count the writers waiting for it, bits 32-63 the readers holding it.
constexpr uint64_t kWriter = 1;
constexpr uint64_t kWaitingWriter = uint64_t{1} << 1;
constexpr uint64_t kWaitingMask = ((uint64_t{1} << 31) - 1) << 1;
constexpr uint64_t kReader = uint64_t{1} << 32;
constexpr uint64_t kReaderMask = ~uint64_t{0} << 32;

// What keeps each mode out: a reader waits while a writer holds the lock or
// waits for it (writer preference), a writer while anyone holds it.
constexpr uint64_t kReadBlockers = kWriter | kWaitingMask;
constexpr uint64_t kWriteBlockers = kWriter | kReaderMask;
// A waiting writer's acquisition: it stops waiting and holds the lock.
constexpr uint64_t kWaiterTakesWrite = kWriter - kWaitingWriter;

// How long a contended acquirer spins before it parks: about one short
// operation. Measured with perfbench short-write-2t (coarse, 4-vCPU Xeon
// VM, seeds 11-16, one pause about 14 ns), against the lock that parked
// every contended acquirer on a condition variable: a bound of 0 (one clock
// check, 64 pauses) ran 1.02x its median op/s, 20 us 1.34x, 70 us 1.48x and
// 250 us 1.39x, and p99 fell to 0.52x at 70 us. The gain is the spin's.
constexpr std::chrono::microseconds kSpinBound{70};
// Pauses between two reads of the clock, so the bound is a time whatever a
// pause costs on the host.
constexpr int kPausesPerClockCheck = 64;

inline void CpuPause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

bool RwLock::TryAcquire(uint64_t blocking, uint64_t delta) {
  // mo: relaxed; the CAS below is the acquisition and re-reads the word.
  uint64_t state = state_.load(std::memory_order_relaxed);
  while ((state & blocking) == 0) {
    // mo: acquire pairs with the release half of the unlocks, so the
    // previous holder's critical section happens before ours.
    if (state_.compare_exchange_weak(state, state + delta, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void RwLock::AcquireContended(uint64_t blocking, uint64_t delta) {
  Clock::time_point deadline = Clock::now() + kSpinBound;
  for (int pauses = 1; !TryAcquire(blocking, delta); ++pauses) {
    CpuPause();
    if (pauses % kPausesPerClockCheck == 0 && Clock::now() >= deadline) {
      Park(blocking);
      deadline = Clock::now() + kSpinBound;
    }
  }
}

void RwLock::Park(uint64_t blocking) {
  std::unique_lock<std::mutex> lock(park_mu_);
  // mo: seq_cst, with the load below and the unlocks' RMW and sleeper load:
  // either the releaser sees this count or this load sees its release.
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  // mo: seq_cst, the sleeper's half of the handshake above.
  while ((state_.load(std::memory_order_seq_cst) & blocking) != 0) {
    park_cv_.wait(lock);
  }
  // mo: relaxed; a stale nonzero count only costs a releaser a notify.
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

void RwLock::WakeSleepers() {
  // mo: seq_cst, the releaser's half of the handshake in Park.
  if (sleepers_.load(std::memory_order_seq_cst) == 0) {
    return;
  }
  // A sleeper checks the word and waits under park_mu_, so taking it here
  // orders this wake-up after any check that saw the lock still held.
  { std::lock_guard<std::mutex> lock(park_mu_); }
  park_cv_.notify_all();
}

void RwLock::LockRead() {
  if (!TryAcquire(kReadBlockers, kReader)) {
    AcquireContended(kReadBlockers, kReader);
  }
}

void RwLock::UnlockRead() {
  // mo: seq_cst: releases the critical section and orders the word's change
  // before WakeSleepers' load of the sleeper count.
  const uint64_t before = state_.fetch_sub(kReader, std::memory_order_seq_cst);
  SB7_DCHECK((before & kReaderMask) != 0);
  if ((before & kReaderMask) == kReader) {
    WakeSleepers();  // the last reader out may let a writer in
  }
}

void RwLock::LockWrite() {
  uint64_t expected = 0;
  // mo: acquire, as in TryAcquire.
  if (!state_.compare_exchange_strong(expected, kWriter, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
    // mo: relaxed; registering only turns new readers away and publishes
    // nothing, and the acquisition's CAS orders the critical section.
    state_.fetch_add(kWaitingWriter, std::memory_order_relaxed);
    AcquireContended(kWriteBlockers, kWaiterTakesWrite);
  }
  ++write_acquisitions_;
}

void RwLock::UnlockWrite() {
  // mo: seq_cst, as in UnlockRead.
  [[maybe_unused]] const uint64_t before =
      state_.fetch_sub(kWriter, std::memory_order_seq_cst);
  SB7_DCHECK((before & kWriter) != 0);
  WakeSleepers();
}

}  // namespace sb7
