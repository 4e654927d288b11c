#include "src/stm/norec.h"

#include <atomic>
#include <thread>

#include "src/common/diag.h"

namespace sb7 {
namespace {

// The single global sequence lock: even = no writer committing, odd = a
// writer is inside its commit critical section.
sp::AtomicU64 g_norec_clock{0};

}  // namespace

std::unique_ptr<TxImplBase> NorecStm::CreateTx() { return std::make_unique<NorecTx>(); }

uint64_t NorecTx::WaitForEvenClock() {
  while (true) {
    // mo: acquire — an even value pairs with the committer's release store,
    // so every write of that commit is visible before we read data.
    const uint64_t now = g_norec_clock.load(std::memory_order_acquire);
    if ((now & 1) == 0) {
      return now;
    }
    std::this_thread::yield();
  }
}

void NorecTx::BeginAttempt() {
  snapshot_ = WaitForEvenClock();
  read_log_.clear();
  write_log_.clear();
  write_index_.clear();
}

uint64_t NorecTx::Validate() {
  while (true) {
    const uint64_t before = WaitForEvenClock();
    TxValidationScope validation;
    validation.set_steps(read_log_.size());
    tally_.validation_steps += static_cast<int64_t>(read_log_.size());
    bool consistent = true;
    const TxFieldBase* conflicting = nullptr;
    for (const ReadEntry& entry : read_log_) {
      if (entry.field->LoadRaw(std::memory_order_acquire) != entry.value) {
        consistent = false;
        conflicting = entry.field;
        break;
      }
    }
    if (!consistent) {
      // NOrec has no per-location metadata of its own; key the conflict by
      // the field's lock word so attribution shares the word-STM key space.
      SetTxAbortCause(AbortCause::kReadValidation, &conflicting->LockWord());
      throw TxAborted{};
    }
    // Values matched; the snapshot is only coherent if no writer committed
    // while we were scanning.
    // mo: acquire — re-check pairs with committers' release; equality
    // proves no writer interleaved with the value scan.
    if (g_norec_clock.load(std::memory_order_acquire) == before) {
      return before;
    }
  }
}

uint64_t NorecTx::Read(const TxFieldBase& field) {
  ++tally_.reads;
  if (const uint32_t pos = write_index_.Find(&field); pos != WriteIndex::kNotFound) {
    return write_log_[pos].second;
  }
  uint64_t value = field.LoadRaw(std::memory_order_acquire);
  // If a writer committed since our snapshot, re-validate by value and move
  // the snapshot forward, re-reading until the pair (value, clock) is stable.
  // mo: acquire — any clock motion means a commit may have overlapped the
  // data read; pairs with that committer's release store.
  while (g_norec_clock.load(std::memory_order_acquire) != snapshot_) {
    snapshot_ = Validate();
    value = field.LoadRaw(std::memory_order_acquire);
  }
  read_log_.push_back(ReadEntry{&field, value});
  return value;
}

void NorecTx::Write(TxFieldBase& field, uint64_t value) {
  ++tally_.writes;
  const auto [pos, inserted] =
      write_index_.Insert(&field, static_cast<uint32_t>(write_log_.size()));
  if (inserted) {
    write_log_.emplace_back(&field, value);
  } else {
    write_log_[pos].second = value;
  }
}

bool NorecTx::TryCommit() {
  if (write_log_.empty()) {
    // Read-only: every read was validated against a stable clock.
    return true;
  }
  // Acquire the global sequence lock at a clock equal to our snapshot; any
  // interleaving writer forces a (value-based) re-validation first.
  // mo: acq_rel — taking the sequence lock is the serialization point: it
  // must see every prior commit and publish that a writer is in flight.
  while (!g_norec_clock.compare_exchange_weak(snapshot_, snapshot_ + 1,
                                              std::memory_order_acq_rel)) {
    try {
      snapshot_ = Validate();
    } catch (const TxAborted&) {
      return false;
    }
  }
  for (const auto& [field, value] : write_log_) {
    field->StoreRaw(value, std::memory_order_release);
  }
  // mo: release — turning the clock even publishes the whole writeback.
  g_norec_clock.store(snapshot_ + 2, std::memory_order_release);
  return true;
}

void NorecTx::AbortSelf() {
  // Reads are invisible and writes are buffered; nothing to undo.
}

}  // namespace sb7
