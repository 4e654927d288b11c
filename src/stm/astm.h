// ASTM-like object-granular STM.
//
// This is the "straightforward STM port" the paper evaluates in §5, rebuilt
// mechanically: a DSTM/ASTM-style object STM with
//
//   * eager write acquisition — writers own whole objects (TmUnits) and both
//     read-after-write and write-after-write conflicts are arbitrated by a
//     contention manager (Polka by default);
//   * invisible reads with *incremental* validation — every read-open of a
//     new object re-validates the entire read list, so a transaction reading
//     k objects performs O(k^2) validation work. This is precisely the cost
//     §5 blames for T1 taking "as much as half an hour";
//   * object-level logging — acquiring an object for writing clones all of
//     it: every field word plus any out-of-line payload (document text, the
//     manual, snapshot indexes). Touching one attribute of the 1 MB manual
//     therefore copies the whole manual, the second §5 pathology.
//
// Versioning per object is a seqlock (odd while a committed writer is
// flushing its redo image), so readers can detect mid-writeback states and
// torn reads without making reads visible.

#ifndef STMBENCH7_SRC_STM_ASTM_H_
#define STMBENCH7_SRC_STM_ASTM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/stm/contention.h"
#include "src/stm/stm.h"

namespace sb7 {

// kCommitting is the short window between a transaction's commit claim and
// its commit point, while it checks the units it read: a contention manager
// can no longer kill it there, and it either commits or aborts itself.
enum class AstmStatus : uint8_t { kActive, kCommitting, kCommitted, kAborted };

class AstmStm : public Stm {
 public:
  // Uses Polka (the paper's configuration) when `cm` is null.
  explicit AstmStm(std::unique_ptr<ContentionManager> cm = nullptr);

  std::string_view name() const override { return "astm"; }
  ContentionManager& contention_manager() { return *cm_; }

 protected:
  std::unique_ptr<TxImplBase> CreateTx() override;

 private:
  std::unique_ptr<ContentionManager> cm_;
};

class AstmTx : public TxImplBase {
 public:
  AstmTx(StmStats& stats, ContentionManager& cm) : stats_(stats), cm_(&cm) {}

  void BeginAttempt() override;
  uint64_t Read(const TxFieldBase& field) override;
  void Write(TxFieldBase& field, uint64_t value) override;
  bool TryCommit() override;
  void AbortSelf() override;

  // Contention-manager interface: a transaction's priority is its investment,
  // measured in opened objects. Contention managers read it on *other*
  // threads while this transaction keeps opening objects, so it is a
  // dedicated atomic mirror of read_map_.size() + write_map_.size() — the
  // maps themselves must never be touched cross-thread.
  // mo: relaxed — a heuristic input to arbitration; any recent value works.
  int64_t Priority() const { return priority_.load(std::memory_order_relaxed); }
  // mo: acquire — pairs with the release transitions in TryCommit/AbortSelf
  // so a reader acting on kCommitted/kAborted sees the state behind it.
  AstmStatus status() const { return status_.load(std::memory_order_acquire); }

  // Attempts to kill this transaction; returns true if the kill landed.
  bool RequestAbort() {
    AstmStatus expected = AstmStatus::kActive;
    // mo: acq_rel — arbitration point against the victim's own commit
    // claim; winner's ordering must be visible both ways.
    return status_.compare_exchange_strong(expected, AstmStatus::kAborted,
                                           std::memory_order_acq_rel);
  }

 private:
  struct WriteImage {
    std::vector<uint64_t> words;     // one slot per registered field
    std::string payload_clone;       // whole-object copy of out-of-line data
  };

  // Throws TxAborted if a contention manager killed this transaction.
  void CheckAlive() const;
  // Ensures `unit` is in the read list; returns the version recorded for it.
  uint64_t OpenRead(const TmUnit& unit);
  WriteImage& OpenWrite(TmUnit& unit);
  void HandleConflict(const TmUnit& unit, AstmTx& owner, int& retries);
  // Commit-time check of the units this transaction read but does not own:
  // returns false (cause set) when a rival owner has committed, wins the
  // contention manager's arbitration, or is committing and wins the tie.
  bool ReadUnitsUnowned();
  bool ValidateReadList();
  void ReleaseOwnerships();

  StmStats& stats_;
  ContentionManager* cm_;
  // The kill/commit arbitration word: a protocol atomic, so it sits on the
  // SyncPoint seam for the interleaving explorer.
  sp::Atomic<AstmStatus> status_{AstmStatus::kActive};
  // Cross-thread-readable open count (see Priority()). Deliberately NOT on
  // the SyncPoint seam: it only biases contention-manager heuristics, and
  // instrumenting it would add a schedule point per object open for no
  // protocol coverage. The explorer models the historical Priority() race
  // at the litmus level instead (astm-priority-race).
  std::atomic<int64_t> priority_{0};

  std::unordered_map<const TmUnit*, uint64_t> read_map_;  // unit -> version
  std::unordered_map<TmUnit*, WriteImage> write_map_;
  std::vector<TmUnit*> write_order_;

  int64_t local_reads_ = 0;
  int64_t local_writes_ = 0;
  int64_t local_validation_steps_ = 0;
  int64_t local_bytes_cloned_ = 0;
  void FlushLocalStats();
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_STM_ASTM_H_
