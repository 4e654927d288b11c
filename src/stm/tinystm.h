// TinySTM-style word-based STM (Felber, Fetzer, Riegel — the paper's
// [11]/[13] lazy-snapshot / encounter-time family).
//
// Mechanics: encounter-time locking — a write immediately acquires the
// field's lock, saves the old value in an undo log and updates memory in place.
// Reads are invisible and timestamp-validated; when a read observes a version
// newer than the current snapshot the snapshot is *extended* (the whole read
// set is revalidated against the current clock), which lets long transactions
// survive concurrent commits that touched none of their reads — the key
// difference from plain TL2.

#ifndef STMBENCH7_SRC_STM_TINYSTM_H_
#define STMBENCH7_SRC_STM_TINYSTM_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/stm/lock_table.h"
#include "src/stm/stm.h"

namespace sb7 {

class TinyStm : public Stm {
 public:
  std::string_view name() const override { return "tinystm"; }

 protected:
  std::unique_ptr<TxImplBase> CreateTx() override;
};

class TinyTx : public TxImplBase {
 public:
  explicit TinyTx(StmStats& stats) : stats_(stats) {}

  void BeginAttempt() override;
  uint64_t Read(const TxFieldBase& field) override;
  void Write(TxFieldBase& field, uint64_t value) override;
  bool TryCommit() override;
  void AbortSelf() override;

 private:
  struct ReadEntry {
    const sp::AtomicU64* lock;
    uint64_t observed;  // lock word at read time
  };
  struct UndoEntry {
    TxFieldBase* field;
    uint64_t old_value;
  };

  bool OwnsLock(const sp::AtomicU64* lock) const {
    return owned_lookup_.count(lock) != 0;
  }

  // Revalidates the read set against `now` and, on success, moves the
  // snapshot forward. Returns false if any read is stale.
  bool ExtendSnapshot(uint64_t now);
  bool ValidateReadSet() const;
  // Undoes the in-place writes and releases the owned locks at a fresh
  // version (see tinystm.cc).
  void RollbackAndRelease();

  StmStats& stats_;
  uint64_t rv_ = 0;

  std::vector<ReadEntry> read_set_;
  std::vector<UndoEntry> undo_log_;
  std::vector<sp::AtomicU64*> owned_;
  std::unordered_set<const sp::AtomicU64*> owned_lookup_;

  int64_t local_reads_ = 0;
  int64_t local_writes_ = 0;
  mutable int64_t local_validation_steps_ = 0;
  void FlushLocalStats();
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_STM_TINYSTM_H_
