#include "src/mvstm/version_chain.h"

#include <atomic>

#include "src/common/diag.h"
#include "src/ebr/ebr.h"
#include "src/stm/lock_table.h"
#include "src/stm/stm.h"

namespace sb7 {

namespace internal {

void FreeMvHistoryHead(void* head) { delete static_cast<MvVersion*>(head); }

}  // namespace internal

void VersionChain::Publish(TxFieldBase& field, uint64_t value, uint64_t commit_ts) {
  // mo: relaxed — the committer holds this field's lock, so it is the
  // only possible writer of the head and the word until it unlocks.
  auto* old_head = static_cast<MvVersion*>(field.LoadMvHistory(std::memory_order_relaxed));
  if (old_head == nullptr) {
    // First write ever: synthesize the pre-history version so that readers
    // with a start timestamp below `commit_ts` still find their snapshot.
    old_head = new MvVersion{field.LoadRaw(std::memory_order_relaxed), 0, nullptr};
  }
  auto* node = new MvVersion{value, commit_ts, old_head};
  // Publish the version before the in-place word: a reader that sees the new
  // word but a null history head would misattribute it to the pre-history
  // snapshot (see the chain-empty fallback in ReadAtSnapshot).
  // mo: release (both) — the node's fields must be visible before the head
  // pointer, and the head before the word (readers load in reverse order).
  field.StoreMvHistory(node, std::memory_order_release);
  field.StoreRaw(value, std::memory_order_release);
  // The displaced node stays reachable (node->next) for the read-only
  // transactions that still need it; EBR frees it only once every online
  // thread has quiesced, i.e. once those transactions have finished. Later
  // transactions pin start_ts >= commit_ts and stop their walk at `node`.
  EbrDomain::Global().RetireObject(old_head);
}

uint64_t VersionChain::ReadAtSnapshot(const TxFieldBase& field, uint64_t snapshot_ts) {
  // Safety hinges on the commit protocol's lock-before-clock-advance order
  // (MvTx::TryCommit, as in TL2): a commit with timestamp wv holds all its
  // field locks before the clock can reach wv. Hence, for any reader whose
  // snapshot_ts came from the clock, an UNLOCKED field proves that every
  // commit to it with timestamp <= snapshot_ts has fully published its
  // versions — the word and the chain can be trusted. A LOCKED field may
  // carry an in-flight commit that belongs in this snapshot, so the reader
  // waits out the (short) publish+release window instead of serving a
  // possibly pre-commit state. Waiting is not aborting: the reader stays
  // abort-free, it is merely not wait-free across a rival's commit point.
  const sp::AtomicU64& lock = field.LockWord();
  for (int attempt = 0;; ++attempt) {
    Backoff::Pause(attempt);
    // mo: acquire — an unlocked word pairs with the last committer's release,
    // making its published chain and writeback visible.
    const uint64_t pre = lock.load(std::memory_order_acquire);
    if (LockTable::IsLocked(pre)) {
      continue;
    }
    if (LockTable::VersionOf(pre) <= snapshot_ts) {
      // The field's newest commit is within the snapshot: the in-place word
      // is the snapshot value. The post-check rejects words torn by a commit
      // that locked the field between the two loads.
      const uint64_t word = field.LoadRaw(std::memory_order_acquire);
      // mo: acquire — seqlock post-check; pairs with lockers' CAS.
      if (lock.load(std::memory_order_acquire) == pre) {
        return word;
      }
      continue;
    }
    // Field newer than the snapshot but unlocked: the version this reader
    // needs is already in the chain. Load the word BEFORE the history head:
    // writers publish the head before the word, so a null head here proves
    // the word read below predates every committed write to this field — it
    // is the pre-history value, committed at ts 0.
    const uint64_t word = field.LoadRaw(std::memory_order_acquire);
    // mo: acquire — pairs with Publish's release; seeing the head implies the
    // node contents (value, commit_ts, next) are initialized.
    const auto* node =
        static_cast<const MvVersion*>(field.LoadMvHistory(std::memory_order_acquire));
    if (node == nullptr) {
      return word;
    }
    for (; node != nullptr; node = node->next) {
      if (node->commit_ts <= snapshot_ts) {
        return node->value;
      }
    }
    // Unreachable: every chain bottoms out at a version with commit_ts 0.
    SB7_CHECK(false && "mvstm: version chain missing snapshot version");
  }
}

namespace {
std::atomic<int64_t> g_live_mv_nodes{0};
}  // namespace

void* MvVersion::operator new(size_t size) {
  // mo: relaxed — leak-check tally; read single-threaded in tests.
  g_live_mv_nodes.fetch_add(1, std::memory_order_relaxed);
  return ::operator new(size);
}

void MvVersion::operator delete(void* ptr) {
  // mo: relaxed — leak-check tally; read single-threaded in tests.
  g_live_mv_nodes.fetch_sub(1, std::memory_order_relaxed);
  ::operator delete(ptr);
}

// mo: relaxed — leak-check tally; read single-threaded in tests.
int64_t MvVersion::LiveNodeCount() { return g_live_mv_nodes.load(std::memory_order_relaxed); }

}  // namespace sb7
