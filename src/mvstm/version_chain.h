// Per-field version history for the multi-version STM (mvstm).
//
// Every TxFieldBase carries a hook (TxFieldBase::LoadMvHistory /
// StoreMvHistory) pointing at a singly linked, newest-first list of committed
// versions {value, commit_ts}. Writers publish a new head while holding the
// field's lock; read-only transactions walk the list to the newest
// version with commit_ts <= their start timestamp and therefore never
// validate and never abort (LSA/SwissTM-style timestamped version lists).
//
// Reclamation piggybacks on the EBR domain and keeps the lists short without
// any per-field garbage-collection pass:
//
//   * When a push displaces the previous head N_old, N_old is retired
//     immediately. Any read-only transaction that still needs N_old (start
//     timestamp < the new version's commit_ts) is between two quiescent
//     points, so EBR's grace period keeps N_old alive until it finishes.
//   * Transactions that begin after the retirement pin a start timestamp >=
//     the new head's commit_ts (the commit advanced the global clock before
//     retiring), so their walk stops at the new head and never dereferences
//     the dangling `next` pointer below it.
//   * The first push to a field synthesizes a base version {initial value,
//     ts 0} below the new head — the pre-history snapshot older readers need
//     — and retires it by the same rule.
//
// Net effect: at any instant exactly one node per field (the head) is owned
// by the chain; everything older is in EBR limbo or already freed. The field
// destructor frees the head via internal::FreeMvHistoryHead.

#ifndef STMBENCH7_SRC_MVSTM_VERSION_CHAIN_H_
#define STMBENCH7_SRC_MVSTM_VERSION_CHAIN_H_

#include <cstddef>
#include <cstdint>

#include "src/stm/field.h"

namespace sb7 {

// One committed version of a field's word. Immutable once published.
struct MvVersion {
  uint64_t value;
  uint64_t commit_ts;
  // Next-older version. May dangle once no transaction with start_ts <
  // commit_ts can exist; such a node is never dereferenced (see above).
  const MvVersion* next;

  // Allocation is instrumented so tests can prove that version nodes are
  // actually reclaimed instead of accumulating per commit.
  static void* operator new(size_t size);
  static void operator delete(void* ptr);
  static int64_t LiveNodeCount();
};

class VersionChain {
 public:
  // Publishes `value` as the newest committed version of `field` at
  // `commit_ts` and stores it in place. The caller must hold the field's
  // lock and must already have advanced the global clock to at least
  // `commit_ts`. Retires the displaced head (or the synthesized base version
  // on the first push) through EbrDomain::Global().
  static void Publish(TxFieldBase& field, uint64_t value, uint64_t commit_ts);

  // Returns the value of the newest version with commit_ts <= snapshot_ts.
  // Tries the in-place word under the field lock's pre/post check first,
  // then walks the version list. Never aborts; may briefly wait out a rival
  // commit's publish window when the field is locked (an in-flight commit
  // may carry a timestamp inside this snapshot). The calling thread must be
  // inside an EBR grace period (online and not quiescing until the enclosing
  // transaction finishes).
  static uint64_t ReadAtSnapshot(const TxFieldBase& field, uint64_t snapshot_ts);

};

}  // namespace sb7

#endif  // STMBENCH7_SRC_MVSTM_VERSION_CHAIN_H_
