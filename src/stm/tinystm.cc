#include "src/stm/tinystm.h"

#include "src/common/diag.h"

namespace sb7 {

std::unique_ptr<TxImplBase> TinyStm::CreateTx() { return std::make_unique<TinyTx>(stats()); }

void TinyTx::BeginAttempt() {
  rv_ = LockTable::ClockNow();
  read_set_.clear();
  undo_log_.clear();
  owned_.clear();
  owned_lookup_.clear();
  local_reads_ = local_writes_ = local_validation_steps_ = 0;
}

void TinyTx::FlushLocalStats() {
  // mo: relaxed — StmStats tallies; read only after workers are joined.
  stats_.reads.fetch_add(local_reads_, std::memory_order_relaxed);
  stats_.writes.fetch_add(local_writes_, std::memory_order_relaxed);
  stats_.validation_steps.fetch_add(local_validation_steps_, std::memory_order_relaxed);
}

bool TinyTx::ValidateReadSet() const {
  TxValidationScope validation;
  validation.set_steps(read_set_.size());
  local_validation_steps_ += static_cast<int64_t>(read_set_.size());
  for (const ReadEntry& entry : read_set_) {
    // mo: acquire — pairs with committers' release stores on the lock.
    const uint64_t word = entry.lock->load(std::memory_order_acquire);
    if (word == entry.observed) {
      continue;
    }
    // The word changed since the read. The only benign change is this
    // transaction itself taking the lock for writing afterwards.
    if (LockTable::IsLocked(word) && LockTable::OwnerOf(word) == this) {
      continue;
    }
    SetTxAbortCause(AbortCause::kReadValidation, entry.lock);
    return false;
  }
  return true;
}

bool TinyTx::ExtendSnapshot(uint64_t now) {
  if (!ValidateReadSet()) {
    return false;
  }
  rv_ = now;
  return true;
}

uint64_t TinyTx::Read(const TxFieldBase& field) {
  ++local_reads_;
  sp::AtomicU64& lock = field.LockWord();
  while (true) {
    // mo: acquire — the pre/post pair brackets the in-place data read
    // seqlock-style; both must see the owning writer's release.
    const uint64_t pre = lock.load(std::memory_order_acquire);
    if (LockTable::IsLocked(pre)) {
      if (LockTable::OwnerOf(pre) == this) {
        // In-place write-through: memory already holds this transaction's
        // value.
        return field.LoadRaw(std::memory_order_acquire);
      }
      SetTxAbortCause(AbortCause::kWriteLock, &lock);
      throw TxAborted{};  // owned by a concurrent writer
    }
    const uint64_t value = field.LoadRaw(std::memory_order_acquire);
    // mo: acquire — the post read of the seqlock pair bracketing the data.
    const uint64_t post = lock.load(std::memory_order_acquire);
    if (post != pre) {
      continue;  // raced with a commit; re-read
    }
    if (LockTable::VersionOf(pre) > rv_ && !ExtendSnapshot(LockTable::ClockNow())) {
      // Cause and conflict key were set by ValidateReadSet.
      throw TxAborted{};
    }
    read_set_.push_back(ReadEntry{&lock, pre});
    return value;
  }
}

void TinyTx::Write(TxFieldBase& field, uint64_t value) {
  ++local_writes_;
  sp::AtomicU64& lock = field.LockWord();
  if (!OwnsLock(&lock)) {
    // mo: acquire — probe must see the last owner's release of the lock.
    uint64_t word = lock.load(std::memory_order_acquire);
    if (LockTable::IsLocked(word)) {
      // Either a concurrent writer owns it, or this transaction does (which
      // OwnsLock already ruled out).
      SetTxAbortCause(AbortCause::kWriteLock, &lock);
      throw TxAborted{};
    }
    if (LockTable::VersionOf(word) > rv_ && !ExtendSnapshot(LockTable::ClockNow())) {
      // Cause and conflict key were set by ValidateReadSet.
      throw TxAborted{};
    }
    // mo: acq_rel — encounter-time acquisition: observe the prior owner's
    // release and publish our ownership before the in-place store.
    if (!lock.compare_exchange_strong(word, LockTable::MakeLocked(this),
                                      std::memory_order_acq_rel)) {
      SetTxAbortCause(AbortCause::kWriteLock, &lock);
      throw TxAborted{};
    }
    owned_.push_back(&lock);
    owned_lookup_.insert(&lock);
  }
  undo_log_.push_back(UndoEntry{&field, field.LoadRaw(std::memory_order_acquire)});
  field.StoreRaw(value, std::memory_order_release);
}

bool TinyTx::TryCommit() {
  if (owned_.empty()) {
    FlushLocalStats();
    RunCommitHooks();
    return true;
  }
  const uint64_t wv = LockTable::ClockAdvance();
  if (wv != rv_ + 1 && !ValidateReadSet()) {
    RollbackAndRelease();
    FlushLocalStats();
    RunAbortHooks();
    return false;
  }
  for (sp::AtomicU64* lock : owned_) {
    // mo: release — publishes the in-place writes before the new version.
    lock->store(LockTable::MakeVersion(wv), std::memory_order_release);
  }
  owned_.clear();
  owned_lookup_.clear();
  FlushLocalStats();
  RunCommitHooks();
  return true;
}

void TinyTx::RollbackAndRelease() {
  // Undo in reverse so repeated writes to a field restore the original.
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
    it->field->StoreRaw(it->old_value, std::memory_order_release);
  }
  undo_log_.clear();
  if (!owned_.empty()) {
    // Released at a fresh clock tick, never at the pre-lock word, as
    // TinySTM's write-through mode does: a reader whose pre/post lock loads
    // bracket this attempt's in-place store and its undo would otherwise
    // see the same word twice and accept a value that was never committed,
    // possibly a link to a node the abort hooks free.
    const uint64_t version = LockTable::MakeVersion(LockTable::ClockAdvance());
    for (sp::AtomicU64* lock : owned_) {
      // mo: release — publishes the undo writeback before dropping the lock.
      lock->store(version, std::memory_order_release);
    }
  }
  owned_.clear();
  owned_lookup_.clear();
}

void TinyTx::AbortSelf() {
  RollbackAndRelease();
  FlushLocalStats();
  RunAbortHooks();
}

}  // namespace sb7
