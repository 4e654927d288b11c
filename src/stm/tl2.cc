#include "src/stm/tl2.h"

#include <algorithm>

#include "src/common/diag.h"

namespace sb7 {

std::unique_ptr<TxImplBase> Tl2Stm::CreateTx() { return std::make_unique<Tl2Tx>(stats()); }

void Tl2Tx::BeginAttempt() {
  rv_ = LockTable::ClockNow();
  read_set_.clear();
  write_log_.clear();
  write_index_.clear();
  acquired_.clear();
  local_reads_ = local_writes_ = local_validation_steps_ = 0;
}

void Tl2Tx::FlushLocalStats() {
  // mo: relaxed — StmStats tallies; read only after workers are joined.
  stats_.reads.fetch_add(local_reads_, std::memory_order_relaxed);
  stats_.writes.fetch_add(local_writes_, std::memory_order_relaxed);
  stats_.validation_steps.fetch_add(local_validation_steps_, std::memory_order_relaxed);
}

uint64_t Tl2Tx::Read(const TxFieldBase& field) {
  ++local_reads_;
  if (const uint32_t pos = write_index_.Find(&field); pos != WriteIndex::kNotFound) {
    return write_log_[pos].value;
  }
  const sp::AtomicU64& lock = field.LockWord();
  // mo: acquire (both lock loads and the data load) — the pre/post lock
  // check brackets the data read seqlock-style; each must see the writeback
  // published by the committer's release of the lock.
  const uint64_t pre = lock.load(std::memory_order_acquire);
  const uint64_t value = field.LoadRaw(std::memory_order_acquire);
  const uint64_t post = lock.load(std::memory_order_acquire);
  if (LockTable::IsLocked(pre) || pre != post || LockTable::VersionOf(pre) > rv_) {
    // Location is being written, or was written after this transaction's
    // snapshot point: the snapshot cannot be extended in plain TL2.
    SetTxAbortCause(AbortCause::kReadValidation, &lock);
    throw TxAborted{};
  }
  read_set_.push_back(&lock);
  return value;
}

void Tl2Tx::Write(TxFieldBase& field, uint64_t value) {
  ++local_writes_;
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
    // mo: release — unlocking publishes the redo-log writeback (or, on
    // abort, re-exposes the untouched pre-lock version).
    held.lock->store(use_saved ? held.saved_word : LockTable::MakeVersion(unlock_version),
                     std::memory_order_release);
  }
  acquired_.clear();
}

bool Tl2Tx::ValidateReadSet() {
  TxValidationScope validation;
  validation.set_steps(read_set_.size());
  local_validation_steps_ += static_cast<int64_t>(read_set_.size());
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

bool Tl2Tx::TryCommit() {
  if (write_log_.empty()) {
    // Read-only: per-read validation already pinned every read to the rv_
    // snapshot, so the transaction is serializable at its start point.
    FlushLocalStats();
    RunCommitHooks();
    return true;
  }
  if (!AcquireWriteLocks()) {
    FlushLocalStats();
    RunAbortHooks();
    return false;
  }
  const uint64_t wv = LockTable::ClockAdvance();
  // If nobody committed between start and lock acquisition, the read set is
  // trivially valid (the standard TL2 rv + 1 == wv shortcut).
  if (wv != rv_ + 1 && !ValidateReadSet()) {
    ReleaseAcquired(0, /*use_saved=*/true);
    FlushLocalStats();
    RunAbortHooks();
    return false;
  }
  for (const WriteEntry& entry : write_log_) {
    entry.field->StoreRaw(entry.value, std::memory_order_release);
  }
  ReleaseAcquired(wv, /*use_saved=*/false);
  FlushLocalStats();
  RunCommitHooks();
  return true;
}

void Tl2Tx::AbortSelf() {
  // Reads are invisible and writes are buffered; nothing to undo.
  SB7_DCHECK(acquired_.empty());
  FlushLocalStats();
  RunAbortHooks();
}

}  // namespace sb7
