#include "src/mvstm/mvstm.h"

#include <algorithm>

#include "src/common/diag.h"
#include "src/ebr/ebr.h"
#include "src/mvstm/group_commit.h"
#include "src/mvstm/version_chain.h"

namespace sb7 {

std::unique_ptr<TxImplBase> MvStm::CreateTx() {
  return std::make_unique<MvTx>(stats(), sequencer_);
}

void MvTx::SetReadOnly(bool read_only) {
  // Called once per RunAtomically execution, before the first attempt.
  hint_read_only_ = read_only;
  demoted_ = false;
}

void MvTx::BeginAttempt() {
  read_only_ = hint_read_only_ && !demoted_;
  if (read_only_) {
    // Passing through a quiescent state here (a) brings the thread online
    // in the EBR domain and (b) is the last quiescence until the
    // transaction ends, so every version node retired from now on survives
    // until this snapshot read is over. Must precede the clock read: the
    // grace-period argument in version_chain.h needs start_ts_ >= the commit
    // timestamp of any node whose retirement we failed to observe.
    EbrDomain::Global().Quiesce();
  }
  start_ts_ = LockTable::ClockNow();
  read_set_.clear();
  write_log_.clear();
  write_index_.clear();
  acquired_.clear();
  local_reads_ = local_writes_ = local_validation_steps_ = 0;
}

void MvTx::FlushLocalStats() {
  // mo: relaxed — StmStats tallies; read only after workers are joined.
  stats_.reads.fetch_add(local_reads_, std::memory_order_relaxed);
  stats_.writes.fetch_add(local_writes_, std::memory_order_relaxed);
  stats_.validation_steps.fetch_add(local_validation_steps_, std::memory_order_relaxed);
}

uint64_t MvTx::Read(const TxFieldBase& field) {
  ++local_reads_;
  if (read_only_) {
    return VersionChain::ReadAtSnapshot(field, start_ts_);
  }
  if (const uint32_t pos = write_index_.Find(&field); pos != WriteIndex::kNotFound) {
    return write_log_[pos].value;
  }
  const sp::AtomicU64& lock = field.LockWord();
  // mo: acquire (all three) — seqlock-style bracket around the data read;
  // pairs with committers' release of the lock (see Tl2Tx::Read).
  const uint64_t pre = lock.load(std::memory_order_acquire);
  const uint64_t value = field.LoadRaw(std::memory_order_acquire);
  const uint64_t post = lock.load(std::memory_order_acquire);
  if (LockTable::IsLocked(pre) || pre != post || LockTable::VersionOf(pre) > start_ts_) {
    SetTxAbortCause(AbortCause::kReadValidation, &lock);
    throw TxAborted{};
  }
  read_set_.push_back(&lock);
  return value;
}

void MvTx::Write(TxFieldBase& field, uint64_t value) {
  if (read_only_) {
    // The read-only promise was wrong (a mislabeled operation). The snapshot
    // path recorded no read set, so the attempt cannot be upgraded in place;
    // abort once and rerun every later attempt in update mode.
    demoted_ = true;
    SetTxAbortCause(AbortCause::kSnapshotTooOld, &field.LockWord());
    throw TxAborted{};
  }
  ++local_writes_;
  const auto [pos, inserted] =
      write_index_.Insert(&field, static_cast<uint32_t>(write_log_.size()));
  if (inserted) {
    write_log_.push_back(WriteEntry{&field, value});
  } else {
    write_log_[pos].value = value;
  }
}

bool MvTx::AcquireWriteLocks() {
  // One lock per logged field (the write index keeps fields unique), sorted
  // by address so concurrent committers collide cleanly (see Tl2Tx).
  for (const WriteEntry& entry : write_log_) {
    acquired_.push_back(AcquiredLock{&entry.field->LockWord(), 0});
  }
  std::sort(acquired_.begin(), acquired_.end(),
            [](const AcquiredLock& a, const AcquiredLock& b) { return a.lock < b.lock; });
  for (size_t i = 0; i < acquired_.size(); ++i) {
    sp::AtomicU64* lock = acquired_[i].lock;
    // mo: acquire probe, acq_rel CAS — see Tl2Tx::AcquireWriteLocks.
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

void MvTx::ReleaseAcquired(uint64_t unlock_version, bool use_saved) {
  for (const AcquiredLock& held : acquired_) {
    // mo: release — unlocking publishes the version-chain nodes and the
    // in-place writeback this commit produced.
    held.lock->store(use_saved ? held.saved_word : LockTable::MakeVersion(unlock_version),
                     std::memory_order_release);
  }
  acquired_.clear();
}

bool MvTx::ValidateReadSet() {
  TxValidationScope validation;
  validation.set_steps(read_set_.size());
  local_validation_steps_ += static_cast<int64_t>(read_set_.size());
  for (const sp::AtomicU64* lock : read_set_) {
    // mo: acquire — pairs with committers' release stores on the lock.
    const uint64_t word = lock->load(std::memory_order_acquire);
    uint64_t effective = word;
    if (LockTable::IsLocked(word)) {
      if (LockTable::OwnerOf(word) != this) {
        SetTxAbortCause(AbortCause::kReadValidation, lock);
        return false;
      }
      // Locked by our own commit: validate against the pre-lock version (a
      // rival may have committed between our read and our lock acquisition).
      const auto it = std::lower_bound(
          acquired_.begin(), acquired_.end(), lock,
          [](const AcquiredLock& held, const sp::AtomicU64* key) { return held.lock < key; });
      SB7_DCHECK(it != acquired_.end() && it->lock == lock);
      effective = it->saved_word;
    }
    if (LockTable::VersionOf(effective) > start_ts_) {
      SetTxAbortCause(AbortCause::kReadValidation, lock);
      return false;
    }
  }
  return true;
}

bool MvTx::TryCommit() {
  if (read_only_ || write_log_.empty()) {
    // Snapshot reads are consistent at start_ts_ by construction; update-mode
    // reads were validated per read against start_ts_. Either way a
    // write-free transaction serializes at its start point.
    FlushLocalStats();
    RunCommitHooks();
    return true;
  }
  if (!AcquireWriteLocks()) {
    FlushLocalStats();
    RunAbortHooks();
    return false;
  }
  if (sequencer_ != nullptr) {
    // Group-commit path (group_commit.h): the group's leader takes the clock
    // tick and drives the redo-log append; validation runs inside
    // CommitThrough on this thread. On success the append (per the log's
    // durability policy) has already happened, so publishing here keeps the
    // write-ahead rule: no version becomes visible that the log does not
    // describe.
    uint64_t wv = 0;
    if (!sequencer_->CommitThrough(*this, &wv)) {
      ReleaseAcquired(0, /*use_saved=*/true);
      FlushLocalStats();
      RunAbortHooks();
      return false;
    }
    for (const WriteEntry& entry : write_log_) {
      VersionChain::Publish(*entry.field, entry.value, wv);
    }
    ReleaseAcquired(wv, /*use_saved=*/false);
    FlushLocalStats();
    RunCommitHooks();
    return true;
  }
  const uint64_t wv = LockTable::ClockAdvance();
  if (wv != start_ts_ + 1 && !ValidateReadSet()) {
    ReleaseAcquired(0, /*use_saved=*/true);
    FlushLocalStats();
    RunAbortHooks();
    return false;
  }
  // Past this point the commit cannot fail: publish the versions. Publishing
  // before the locks release is what lets a concurrent snapshot reader with
  // start_ts >= wv proceed without waiting for the unlock.
  for (const WriteEntry& entry : write_log_) {
    VersionChain::Publish(*entry.field, entry.value, wv);
  }
  ReleaseAcquired(wv, /*use_saved=*/false);
  FlushLocalStats();
  RunCommitHooks();
  return true;
}

void MvTx::AbortSelf() {
  SB7_DCHECK(acquired_.empty());
  FlushLocalStats();
  RunAbortHooks();
}

}  // namespace sb7
