#include "src/stm/astm.h"

#include <functional>

#include "src/common/diag.h"

namespace sb7 {
namespace {

// Conflict key for a unit-granular abort: the lock word of the unit's last
// registered field, so attribution shares the word-STM key space. Null for
// the (theoretical) field-less unit.
const void* UnitConflictKey(const TmUnit& unit) {
  const TxFieldBase* field = unit.last_field();
  return field == nullptr ? nullptr : static_cast<const void*>(&field->LockWord());
}

}  // namespace

AstmStm::AstmStm(std::unique_ptr<ContentionManager> cm) : cm_(std::move(cm)) {
  if (!cm_) {
    cm_ = MakePolkaManager();
  }
}

std::unique_ptr<TxImplBase> AstmStm::CreateTx() {
  return std::make_unique<AstmTx>(*cm_);
}

void AstmTx::BeginAttempt() {
  // mo: release — re-arming the status publishes the cleaned-up state from
  // the previous attempt to contention managers chasing astm_owner.
  status_.store(AstmStatus::kActive, std::memory_order_release);
  read_map_.clear();
  write_map_.clear();
  write_order_.clear();
  // mo: relaxed — heuristic mirror of the open count (see astm.h).
  priority_.store(0, std::memory_order_relaxed);
}

void AstmTx::CheckAlive() const {
  // mo: acquire — pairs with the killer's acq_rel CAS in RequestAbort.
  if (status_.load(std::memory_order_acquire) == AstmStatus::kAborted) {
    SetTxAbortCause(AbortCause::kKill);
    throw TxAborted{};
  }
}

bool AstmTx::ValidateReadList() {
  // Full scan: this is the O(k) step that, executed on every new read-open,
  // yields the O(k^2) behaviour characteristic of invisible-read STMs.
  TxValidationScope validation;
  validation.set_steps(read_map_.size());
  tally_.validation_steps += static_cast<int64_t>(read_map_.size());
  for (const auto& [unit, version] : read_map_) {
    // mo: acquire — pairs with committers' seqlock bumps during writeback.
    if (unit->astm_version.load(std::memory_order_acquire) != version) {
      SetTxAbortCause(AbortCause::kReadValidation, UnitConflictKey(*unit));
      return false;
    }
  }
  return true;
}

void AstmTx::HandleConflict(const TmUnit& unit, AstmTx& owner, int& retries) {
  if (owner.status() != AstmStatus::kActive) {
    // The owner is committing or cleaning up; it will release shortly.
    Backoff::Pause(++retries);
    return;
  }
  switch (cm_->OnConflict(*this, owner, retries)) {
    case ContentionManager::Action::kAbortSelf:
      // Lost the arbitration for `unit` to its current owner.
      SetTxAbortCause(AbortCause::kWriteLock, UnitConflictKey(unit));
      throw TxAborted{};
    case ContentionManager::Action::kAbortOther:
      if (owner.RequestAbort()) {
        ++tally_.kills;
      }
      Backoff::Pause(++retries);  // wait for the kill to take effect
      return;
    case ContentionManager::Action::kRetry:
      Backoff::Pause(++retries);
      return;
  }
}

uint64_t AstmTx::OpenRead(const TmUnit& unit) {
  if (auto it = read_map_.find(&unit); it != read_map_.end()) {
    return it->second;
  }
  int retries = 0;
  uint64_t version;
  while (true) {
    CheckAlive();
    // mo: acquire — an even version pairs with the last committer's flush.
    version = unit.astm_version.load(std::memory_order_acquire);
    if ((version & 1) != 0) {
      // A committed writer is flushing its image; wait it out.
      Backoff::Pause(++retries);
      continue;
    }
    // mo: acquire — chasing the owner pointer must see that descriptor's
    // published state (status, priority).
    AstmTx* owner = unit.astm_owner.load(std::memory_order_acquire);
    if (owner != nullptr && owner != this) {
      // Read-after-write conflict (DSTM/ASTM semantics): arbitrate.
      HandleConflict(unit, *owner, retries);
      continue;
    }
    break;
  }
  if (!ValidateReadList()) {
    // Cause and conflict key were set by ValidateReadList.
    throw TxAborted{};
  }
  read_map_.emplace(&unit, version);
  // mo: relaxed — heuristic open-count mirror (see astm.h).
  priority_.fetch_add(1, std::memory_order_relaxed);
  return version;
}

uint64_t AstmTx::Read(const TxFieldBase& field) {
  CheckAlive();
  ++tally_.reads;
  const TmUnit& unit = field.owner();
  if (!write_map_.empty()) {
    if (auto it = write_map_.find(const_cast<TmUnit*>(&unit)); it != write_map_.end()) {
      return it->second.words[field.index_in_unit()];
    }
  }
  const uint64_t recorded = OpenRead(unit);
  const uint64_t value = field.LoadRaw(std::memory_order_acquire);
  // Post-validation: a writer may have committed and flushed between the
  // open and the load; the seqlock-style version detects both the bump and
  // the odd (mid-flush) state.
  // mo: acquire — seqlock post-check; pairs with the writeback bumps.
  if (unit.astm_version.load(std::memory_order_acquire) != recorded) {
    SetTxAbortCause(AbortCause::kReadValidation, UnitConflictKey(unit));
    throw TxAborted{};
  }
  return value;
}

AstmTx::WriteImage& AstmTx::OpenWrite(TmUnit& unit) {
  int retries = 0;
  while (true) {
    CheckAlive();
    // mo: acquire load — acquiring ownership must see the previous owner's
    // release (its flush is complete).
    AstmTx* owner = unit.astm_owner.load(std::memory_order_acquire);
    if (owner == nullptr) {
      // mo: seq_cst CAS — publishes this descriptor to rivals and contention
      // managers, and is the store half of a store-then-load pair with
      // ReadUnitsUnowned: a committer that owns a and read b, racing one
      // that owns b and read a, must not both miss the other's ownership.
      if (unit.astm_owner.compare_exchange_strong(owner, this, std::memory_order_seq_cst)) {
        break;
      }
      continue;
    }
    SB7_DCHECK(owner != this);  // write_map_ hit would have short-circuited
    HandleConflict(unit, *owner, retries);
  }
  // Ownership acquired; the previous owner (if any) finished its flush before
  // releasing, so the version is stable and even. Clone the whole object:
  // every field word plus any out-of-line payload. This is object-level
  // logging — the cost is proportional to the object, not to the write.
  WriteImage image;
  image.words.resize(unit.field_count());
  for (const TxFieldBase* f = unit.last_field(); f != nullptr; f = f->prev_in_unit()) {
    image.words[f->index_in_unit()] = f->LoadRaw(std::memory_order_acquire);
  }
  tally_.bytes_cloned += static_cast<int64_t>(image.words.size() * sizeof(uint64_t));
  if (const TxText* text = unit.payload()) {
    image.payload_clone = *text->PeekRaw();
    tally_.bytes_cloned += static_cast<int64_t>(image.payload_clone.size());
  }
  write_order_.push_back(&unit);
  // mo: relaxed — heuristic open-count mirror (see astm.h).
  priority_.fetch_add(1, std::memory_order_relaxed);
  return write_map_.emplace(&unit, std::move(image)).first->second;
}

void AstmTx::Write(TxFieldBase& field, uint64_t value) {
  CheckAlive();
  ++tally_.writes;
  TmUnit& unit = field.owner();
  auto it = write_map_.find(&unit);
  if (it == write_map_.end()) {
    WriteImage& image = OpenWrite(unit);
    image.words[field.index_in_unit()] = value;
    return;
  }
  it->second.words[field.index_in_unit()] = value;
}

bool AstmTx::ReadUnitsUnowned() {
  // The DSTM invisible-read rule at commit: validating versions alone misses
  // a rival that owns a unit this transaction read but has not flushed it
  // yet, which lets two transactions that each read {a, b} and each own one
  // of them both commit (write skew). Runs in kCommitting, so nobody can
  // kill this transaction meanwhile. A transaction that writes nothing
  // serializes where its read list validates, whatever rivals own: a rival's
  // flush holds all its units odd until its last image has landed
  // (TryCommit), so no half-flushed commit validates.
  if (write_order_.empty()) {
    return true;
  }
  try {
    for (const auto& [unit, version] : read_map_) {
      int retries = 0;
      while (true) {
        // mo: seq_cst — the load half of the store-then-load pair with the
        // ownership CAS in OpenWrite (see there).
        AstmTx* owner = unit->astm_owner.load(std::memory_order_seq_cst);
        if (owner == nullptr || owner == this) {
          break;
        }
        const AstmStatus status = owner->status();
        if (status == AstmStatus::kAborted) {
          break;  // killed or aborting: its image never reaches the unit
        }
        if (status == AstmStatus::kCommitted ||
            (status == AstmStatus::kCommitting && std::less<>()(owner, this))) {
          // Its flush will change what this transaction read; or both are
          // committing, each owning what the other read, and the lower
          // descriptor address wins the tie. A fixed tie-break, unlike a
          // contention manager's kills, cannot let two symmetric committers
          // abort each other forever.
          SetTxAbortCause(AbortCause::kReadValidation, UnitConflictKey(*unit));
          return false;
        }
        if (status == AstmStatus::kCommitting) {
          Backoff::Pause(++retries);  // it loses the tie to us; await its abort
          continue;
        }
        // Active: arbitrate; a kill that lands lets this commit proceed on
        // the next pass, losing the arbitration throws.
        HandleConflict(*unit, *owner, retries);
      }
    }
  } catch (const TxAborted&) {
    // Cause and conflict key were set by HandleConflict.
    return false;
  }
  return true;
}

bool AstmTx::TryCommit() {
  AstmStatus expected = AstmStatus::kActive;
  // mo: seq_cst — the commit claim races the killer's CAS in RequestAbort
  // (exactly one lands, and its effects must be visible both ways), and
  // rival committers' ReadUnitsUnowned must see it once they see our
  // ownership.
  if (!status_.compare_exchange_strong(expected, AstmStatus::kCommitting,
                                       std::memory_order_seq_cst)) {
    SetTxAbortCause(AbortCause::kKill);
    AbortSelf();  // a contention manager killed this transaction
    return false;
  }
  if (!ReadUnitsUnowned() || !ValidateReadList()) {
    // Cause and conflict key were set by the failing check.
    AbortSelf();
    return false;
  }
  // mo: release — the commit point; a rival that reads kCommitted fails its
  // own commit check instead of reading the units this one flushes.
  status_.store(AstmStatus::kCommitted, std::memory_order_release);
  // Commit point passed: flush redo images. Every written unit's seqlock goes
  // odd before the first image lands and even only after the last one has,
  // so a reader that opened one unit before the flush and opens another
  // after its image landed fails validation on the first.
  for (TmUnit* unit : write_order_) {
    // mo: acq_rel — odd marks flush-in-progress; readers spin on it.
    unit->astm_version.fetch_add(1, std::memory_order_acq_rel);
  }
  for (TmUnit* unit : write_order_) {
    const WriteImage& image = write_map_[unit];
    for (TxFieldBase* f = unit->last_field(); f != nullptr; f = f->prev_in_unit()) {
      f->StoreRaw(image.words[f->index_in_unit()], std::memory_order_release);
    }
  }
  for (TmUnit* unit : write_order_) {
    // mo: acq_rel bump publishes the flushed words (even again); release
    // on the owner clear lets the next acquirer see the completed flush.
    unit->astm_version.fetch_add(1, std::memory_order_acq_rel);
    unit->astm_owner.store(nullptr, std::memory_order_release);
  }
  return true;
}

void AstmTx::ReleaseOwnerships() {
  // No writeback happened (abort path), so versions stay untouched.
  for (TmUnit* unit : write_order_) {
    // mo: release — hands the unit back with our (non-)effects settled.
    unit->astm_owner.store(nullptr, std::memory_order_release);
  }
  write_order_.clear();
  write_map_.clear();
  // Keep the advertised priority consistent with the surviving read list
  // until the next BeginAttempt resets both.
  // mo: relaxed — heuristic open-count mirror (see astm.h).
  priority_.store(static_cast<int64_t>(read_map_.size()), std::memory_order_relaxed);
}

void AstmTx::AbortSelf() {
  // mo: release — publishes the dead state before ownerships drop.
  status_.store(AstmStatus::kAborted, std::memory_order_release);
  ReleaseOwnerships();
}

}  // namespace sb7
