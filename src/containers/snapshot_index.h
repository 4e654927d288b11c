// Single-object snapshot index: the naive STM port of an index.
//
// The whole index is one transactional location holding a pointer to an
// immutable std::map. Reads cost a single transactional read plus an O(log n)
// probe of the immutable snapshot; every update *clones the entire map*,
// swaps the pointer, and retires the old snapshot through EBR.
//
// This mechanically reproduces the pathology §5 describes for the ASTM port,
// where "the manual and each index are represented by single objects": under
// the object-granular STM a writer both pays the full-copy cost and
// serializes with every other index writer; under the word STMs all updates
// conflict on the one pointer word. The skip-list index is the refactored
// alternative (see the `ablation-index` sweep, `sb7-bench --sweep ablation-index`).

#ifndef STMBENCH7_SRC_CONTAINERS_SNAPSHOT_INDEX_H_
#define STMBENCH7_SRC_CONTAINERS_SNAPSHOT_INDEX_H_

#include <map>

#include "src/containers/index.h"
#include "src/ebr/ebr.h"
#include "src/stm/field.h"

namespace sb7 {

template <typename K, typename V>
class SnapshotIndex : public Index<K, V>, public TmObject {
 public:
  SnapshotIndex() : snapshot_(unit(), new Map()) {}

  // raw-ok: destructor runs after the last transaction; no Tx to route through.
  ~SnapshotIndex() override { delete internal::DecodeWord<const Map*>(snapshot_.LoadRaw()); }

  V Lookup(const K& key) const override {
    const Map* map = snapshot_.Get();
    auto it = map->find(key);
    return it == map->end() ? V{} : it->second;
  }

  bool Insert(const K& key, V value) override {
    if (CurrentTx() == nullptr) {
      // Direct mode (initial build, or lock strategies whose external locks
      // already serialize writers against readers): mutate in place. The
      // clone-per-update cost model below only exists to reproduce the
      // transactional-object semantics.
      return MutableSnapshot()->insert_or_assign(key, std::move(value)).second;
    }
    const Map* old_map = snapshot_.Get();
    auto* fresh = new Map(*old_map);  // whole-index clone
    const bool inserted = fresh->insert_or_assign(key, std::move(value)).second;
    Publish(old_map, fresh);
    return inserted;
  }

  bool Remove(const K& key) override {
    if (CurrentTx() == nullptr) {
      return MutableSnapshot()->erase(key) > 0;
    }
    const Map* old_map = snapshot_.Get();
    if (old_map->find(key) == old_map->end()) {
      return false;
    }
    auto* fresh = new Map(*old_map);
    fresh->erase(key);
    Publish(old_map, fresh);
    return true;
  }

  void Range(const K& lo, const K& hi,
             const std::function<bool(const K&, const V&)>& fn) const override {
    const Map* map = snapshot_.Get();
    for (auto it = map->lower_bound(lo); it != map->end() && !(hi < it->first); ++it) {
      if (!fn(it->first, it->second)) {
        return;
      }
    }
  }

  void ForEach(const std::function<bool(const K&, const V&)>& fn) const override {
    const Map* map = snapshot_.Get();
    for (const auto& [key, value] : *map) {
      if (!fn(key, value)) {
        return;
      }
    }
  }

  int64_t Size() const override { return static_cast<int64_t>(snapshot_.Get()->size()); }

 private:
  using Map = std::map<K, V>;

  Map* MutableSnapshot() {
    // raw-ok: direct mode only (no tx in flight; external locks serialize).
    return const_cast<Map*>(internal::DecodeWord<const Map*>(snapshot_.LoadRaw()));
  }

  void Publish(const Map* old_map, Map* fresh) {
    // An index that the running attempt built keeps `fresh` even if the
    // attempt aborts, so `old_map` is retired at once (see TxText::Set).
    Transaction* tx = unit().captured() ? nullptr : CurrentTx();
    // Registered before Set, which may abort the attempt (tinystm, astm).
    if (tx != nullptr) {
      tx->OnAbort([fresh] { delete fresh; });
    }
    snapshot_.Set(fresh);
    if (tx != nullptr) {
      tx->OnCommit([old_map] { EbrDomain::Global().RetireObject(old_map); });
    } else {
      EbrDomain::Global().RetireObject(old_map);
    }
  }

  TxField<const Map*> snapshot_;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_CONTAINERS_SNAPSHOT_INDEX_H_
