#include "src/stm/tl2.h"

#include <algorithm>

#include "src/common/diag.h"

namespace sb7 {

std::unique_ptr<TxImplBase> Tl2Stm::CreateTx() { return std::make_unique<Tl2Tx>(); }

void Tl2Tx::BeginAttempt() {
  rv_ = LockTable::ClockNow();
  read_set_.clear();
  write_log_.clear();
  write_index_.clear();
  acquired_.clear();
}

void Tl2Tx::Write(TxFieldBase& field, uint64_t value) {
  ++tally_.writes;
  const auto [pos, inserted] =
      write_index_.Insert(&field, static_cast<uint32_t>(write_log_.size()));
  if (inserted) {
    write_log_.push_back(WriteEntry{&field, value});
  } else {
    write_log_[pos].value = value;
  }
}

bool Tl2Tx::AcquireWriteLocks() {
  // The write index keeps each field in the log once, so the locks are
  // distinct. Sorting them by address makes concurrent committers acquire
  // in the same order, so the only possible outcome of a collision is a
  // clean abort, never deadlock; ValidateReadSet's lower_bound needs the
  // order too.
  for (const WriteEntry& entry : write_log_) {
    acquired_.push_back(AcquiredLock{&entry.field->LockWord(), 0});
  }
  std::sort(acquired_.begin(), acquired_.end(),
            [](const AcquiredLock& a, const AcquiredLock& b) { return a.lock < b.lock; });
  for (size_t i = 0; i < acquired_.size(); ++i) {
    sp::AtomicU64* lock = acquired_[i].lock;
    // mo: acquire on the probe; acq_rel on the CAS — taking the lock must
    // observe the prior owner's release and publish our ownership.
    uint64_t word = lock->load(std::memory_order_acquire);
    if (LockTable::IsLocked(word) ||
        !lock->compare_exchange_strong(word, LockTable::MakeLocked(this),
                                       std::memory_order_acq_rel)) {
      SetTxAbortCause(AbortCause::kWriteLock, lock);
      acquired_.resize(i);
      ReleaseAcquired(0, /*use_saved=*/true);
      return false;
    }
    acquired_[i].saved_word = word;
  }
  return true;
}

void Tl2Tx::ReleaseAcquired(uint64_t unlock_version, bool use_saved) {
  for (const AcquiredLock& held : acquired_) {
    // mo: release — unlocking publishes the writeback (or, on abort,
    // re-exposes the untouched pre-lock version).
    held.lock->store(use_saved ? held.saved_word : LockTable::MakeVersion(unlock_version),
                     std::memory_order_release);
  }
  acquired_.clear();
}

bool Tl2Tx::ValidateReadSet() {
  TxValidationScope validation;
  validation.set_steps(read_set_.size());
  tally_.validation_steps += static_cast<int64_t>(read_set_.size());
  for (const sp::AtomicU64* lock : read_set_) {
    // mo: acquire — pairs with committers' release stores; a version we
    // accept implies that commit's writeback is visible.
    const uint64_t word = lock->load(std::memory_order_acquire);
    uint64_t effective = word;
    if (LockTable::IsLocked(word)) {
      if (LockTable::OwnerOf(word) != this) {
        SetTxAbortCause(AbortCause::kReadValidation, lock);
        return false;
      }
      // Locked by this transaction's own commit: the field must still be
      // validated against the version it carried *before* we locked it — a
      // conflicting commit may have bumped it between our read and our lock
      // acquisition (acquired_ is sorted by lock address; see
      // AcquireWriteLocks).
      const auto it = std::lower_bound(
          acquired_.begin(), acquired_.end(), lock,
          [](const AcquiredLock& held, const sp::AtomicU64* key) { return held.lock < key; });
      SB7_DCHECK(it != acquired_.end() && it->lock == lock);
      effective = it->saved_word;
    }
    if (LockTable::VersionOf(effective) > rv_) {
      SetTxAbortCause(AbortCause::kReadValidation, lock);
      return false;
    }
  }
  return true;
}

bool Tl2Tx::TakeWriteVersion(uint64_t* wv) {
  *wv = LockTable::ClockAdvance();
  // If nobody committed between start and lock acquisition, the read set is
  // trivially valid (the standard TL2 rv + 1 == wv shortcut).
  return *wv == rv_ + 1 || ValidateReadSet();
}

void Tl2Tx::WriteBack(uint64_t wv) {
  (void)wv;
  for (const WriteEntry& entry : write_log_) {
    entry.field->StoreRaw(entry.value, std::memory_order_release);
  }
}

bool Tl2Tx::TryCommit() {
  if (write_log_.empty()) {
    // Read-only: per-read validation already pinned every read to the rv_
    // snapshot, so the transaction is serializable at its start point.
    return true;
  }
  if (!AcquireWriteLocks()) {
    return false;
  }
  uint64_t wv = 0;
  if (!TakeWriteVersion(&wv)) {
    ReleaseAcquired(0, /*use_saved=*/true);
    return false;
  }
  // Past this point the commit cannot fail. The values become visible
  // before the locks release.
  WriteBack(wv);
  ReleaseAcquired(wv, /*use_saved=*/false);
  return true;
}

void Tl2Tx::AbortSelf() {
  // Reads are invisible and writes are buffered; nothing to undo.
  SB7_DCHECK(acquired_.empty());
}

}  // namespace sb7
