// Ordered index interface (Table 1 of the paper lists the six instances).
//
// Three implementations with different concurrency/granularity tradeoffs:
//   * StdMapIndex      — plain std::map; the java.util analogue used by the
//                        locking strategies (no internal synchronization).
//   * SnapshotIndex    — one transactional pointer to an immutable map; every
//                        update clones the whole map. This models the naive
//                        STM port where "each index is represented by a
//                        single object" (§5).
//   * SkipListIndex    — node-granular transactional skip list; the
//                        "implement the indexes manually, with each node
//                        synchronized separately" refactoring §5 proposes.
//                        (A skip list stands in for the suggested B-tree; the
//                        node-granularity property is what matters.)

#ifndef STMBENCH7_SRC_CONTAINERS_INDEX_H_
#define STMBENCH7_SRC_CONTAINERS_INDEX_H_

#include <cstdint>
#include <functional>
#include <utility>

namespace sb7 {

template <typename K, typename V>
class Index {
 public:
  virtual ~Index() = default;

  // Returns the mapped value or V{} when absent.
  virtual V Lookup(const K& key) const = 0;

  // Inserts or replaces; returns true when the key was new.
  virtual bool Insert(const K& key, V value) = 0;

  // Returns true when the key was present.
  virtual bool Remove(const K& key) = 0;

  // Re-keys an entry: exactly Remove(from) then Insert(to, value). The skip
  // list overrides it to reuse a node the running attempt built.
  virtual void Move(const K& from, const K& to, V value) {
    Remove(from);
    Insert(to, std::move(value));
  }

  // In-order visit of all entries with lo <= key <= hi; fn returning false
  // stops the scan.
  virtual void Range(const K& lo, const K& hi,
                     const std::function<bool(const K&, const V&)>& fn) const = 0;

  // In-order visit of every entry.
  virtual void ForEach(const std::function<bool(const K&, const V&)>& fn) const = 0;

  virtual int64_t Size() const = 0;
};

// Composite key helpers for the build-date index (a multimap emulated with a
// (date, id) composite key).
inline int64_t MakeDateKey(int64_t build_date, int64_t id) {
  return (build_date << 32) | (id & 0xffffffff);
}
inline int64_t DateKeyLowerBound(int64_t build_date) { return build_date << 32; }
inline int64_t DateKeyUpperBound(int64_t build_date) {
  return (build_date << 32) | 0xffffffff;
}
inline int64_t DateKeyDate(int64_t key) { return key >> 32; }

}  // namespace sb7

#endif  // STMBENCH7_SRC_CONTAINERS_INDEX_H_
