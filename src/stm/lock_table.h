// Versioned-lock encoding and the global version clock shared by the
// word-based STMs.
//
// Every field carries its own lock word (TxFieldBase::LockWord()). A lock
// word encodes either an unlocked version number (value << 1) or a locked
// state holding the owning transaction's pointer with the low bit set
// (transaction objects are at least 8-byte aligned, so the low bit is free).
// Versions are drawn from a single global version clock, as in TL2; TinySTM
// and mvstm share the encoding and the clock — only one STM flavour is
// active per benchmark run, and version monotonicity keeps mixed use in
// tests safe.

#ifndef STMBENCH7_SRC_STM_LOCK_TABLE_H_
#define STMBENCH7_SRC_STM_LOCK_TABLE_H_

#include <atomic>
#include <cstdint>

#include "src/mc/sync_point.h"

namespace sb7 {

class LockTable {
 public:
  // --- encoding helpers ---
  static bool IsLocked(uint64_t word) { return (word & 1) != 0; }
  static uint64_t VersionOf(uint64_t word) { return word >> 1; }
  static uint64_t MakeVersion(uint64_t version) { return version << 1; }
  static uint64_t MakeLocked(const void* owner) {
    return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(owner)) | 1;
  }
  static const void* OwnerOf(uint64_t word) {
    return reinterpret_cast<const void*>(static_cast<uintptr_t>(word & ~uint64_t{1}));
  }

  // Global version clock (TL2's "global version number"). On the SyncPoint
  // seam the deterministic interleaving explorer (src/mc/) schedules around;
  // in normal builds (SB7_MC off) sp::Atomic is std::atomic, verbatim.
  // mo: acquire — a transaction's start timestamp must happen-after the
  // commits whose versions it may observe (their release of the locks).
  static uint64_t ClockNow() { return clock_.load(std::memory_order_acquire); }
  // mo: acq_rel — the tick is the commit's serialization point: it must see
  // every earlier tick (acquire) and publish this commit's existence to
  // later clock readers (release).
  static uint64_t ClockAdvance() { return clock_.fetch_add(1, std::memory_order_acq_rel) + 1; }

 private:
  static sp::AtomicU64 clock_;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_STM_LOCK_TABLE_H_
