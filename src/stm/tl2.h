// TL2-style word-based STM (Dice, Shalev, Shavit — DISC'06, the paper's [5]).
//
// Mechanics: a transaction samples the global version clock at start (rv),
// reads are invisible and validated per-read against the per-field versioned
// locks (post-validation gives opacity, so no zombie executions), writes are
// buffered in a redo log and published at commit under commit-time field
// locks with a fresh write version (wv).
//
// mvstm's update mode is this protocol: MvTx (src/mvstm/mvstm.h) derives
// from Tl2Tx and overrides only how the write version is taken and how the
// logged values become visible.

#ifndef STMBENCH7_SRC_STM_TL2_H_
#define STMBENCH7_SRC_STM_TL2_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/stm/lock_table.h"
#include "src/stm/stm.h"
#include "src/stm/write_index.h"

namespace sb7 {

class Tl2Stm : public Stm {
 public:
  std::string_view name() const override { return "tl2"; }

 protected:
  std::unique_ptr<TxImplBase> CreateTx() override;
};

class Tl2Tx : public TxImplBase {
 public:
  void BeginAttempt() override;
  uint64_t Read(const TxFieldBase& field) override;
  void Write(TxFieldBase& field, uint64_t value) override;
  bool TryCommit() override;
  void AbortSelf() override;

 protected:
  struct WriteEntry {
    TxFieldBase* field;
    uint64_t value;
  };

  // Commit steps between lock acquisition and lock release. TakeWriteVersion
  // sets *wv and validates the read set against it; on false the commit
  // aborts. WriteBack makes the logged values visible at wv.
  virtual bool TakeWriteVersion(uint64_t* wv);
  virtual void WriteBack(uint64_t wv);
  bool ValidateReadSet();

  uint64_t rv_ = 0;  // the clock at the attempt's start
  std::vector<WriteEntry> write_log_;

 private:
  // Acquires the locks of the write set in lock-address order; returns
  // false (with everything released) if any lock is held by another
  // transaction.
  bool AcquireWriteLocks();
  void ReleaseAcquired(uint64_t unlock_version, bool use_saved);

  std::vector<const sp::AtomicU64*> read_set_;
  WriteIndex write_index_;  // field -> its position in write_log_

  struct AcquiredLock {
    sp::AtomicU64* lock;
    uint64_t saved_word;  // pre-lock word, restored on failed commit
  };
  std::vector<AcquiredLock> acquired_;  // sorted by lock address
};

// Defined here so that MvTx's update-mode read inlines it.
inline uint64_t Tl2Tx::Read(const TxFieldBase& field) {
  ++tally_.reads;
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

}  // namespace sb7

#endif  // STMBENCH7_SRC_STM_TL2_H_
