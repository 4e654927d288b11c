// TL2-style word-based STM (Dice, Shalev, Shavit — DISC'06, the paper's [5]).
//
// Mechanics: a transaction samples the global version clock at start (rv),
// reads are invisible and validated per-read against the per-field versioned
// locks (post-validation gives opacity, so no zombie executions), writes are
// buffered in a redo log and published at commit under commit-time field
// locks with a fresh write version (wv).

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
  explicit Tl2Tx(StmStats& stats) : stats_(stats) {}

  void BeginAttempt() override;
  uint64_t Read(const TxFieldBase& field) override;
  void Write(TxFieldBase& field, uint64_t value) override;
  bool TryCommit() override;
  void AbortSelf() override;

  size_t read_set_size() const { return read_set_.size(); }
  size_t write_set_size() const { return write_log_.size(); }

 private:
  struct WriteEntry {
    TxFieldBase* field;
    uint64_t value;
  };

  // Acquires the locks of the write set in lock-address order; returns
  // false (with everything released) if any lock is held by another
  // transaction.
  bool AcquireWriteLocks();
  void ReleaseAcquired(uint64_t unlock_word_version, bool use_saved);
  bool ValidateReadSet();

  StmStats& stats_;
  uint64_t rv_ = 0;

  std::vector<const sp::AtomicU64*> read_set_;
  std::vector<WriteEntry> write_log_;
  WriteIndex write_index_;  // field -> its position in write_log_

  struct AcquiredLock {
    sp::AtomicU64* lock;
    uint64_t saved_word;  // pre-lock word, restored on failed commit
  };
  std::vector<AcquiredLock> acquired_;  // sorted by lock address

  // Local counters flushed to stats_ at attempt end.
  int64_t local_reads_ = 0;
  int64_t local_writes_ = 0;
  int64_t local_validation_steps_ = 0;
  void FlushLocalStats();
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_STM_TL2_H_
