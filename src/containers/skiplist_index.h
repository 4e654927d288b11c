// Node-granular transactional skip list index.
//
// This is the "scalable" index refactoring suggested in §5 of the paper:
// every node is its own transactional object, so independent updates touch
// disjoint transactional locations and can commit in parallel. Atomicity of
// multi-link updates comes from the enclosing transaction (or the enclosing
// lock in the locking strategies), so the algorithm itself is the plain
// sequential skip list — the concurrency control is entirely injected, in
// the spirit of the benchmark's core-code rule.
//
// A node's height is derived deterministically from the hash of the key it
// was born with (p = 1/4). Move re-keys a node that the running attempt
// built instead of replacing it, and the re-keyed node keeps its height, so
// the shape of the list can depend on the order of its updates. Nothing
// depends on the shape: the oracle's fingerprints and the cross-backend
// equivalence tests read the contents only.
//
// Deliberately avoided: a centralized size field (it would serialize every
// writer on one word). Size() walks the bottom level and is O(n); it is used
// by tests and reports only, never by benchmark operations.
//
// A node is one heap block: its `height` links are laid out behind it in the
// same allocation, so an insert allocates once and a retired node frees once.
//
// Searches start at the list's level (Pugh's "list level"): the height of the
// tallest node ever linked, kept in a transactional field beside the head.
// It never shrinks, so the head's links above it are always null, and an
// insert that raises it takes the head as its predecessor on the new levels.
// The level is a TxField rather than a hint: an insert that read an old level
// would take the head as its predecessor on levels that a concurrent insert
// has just linked and raised, and overwrite those links. Read and raised
// transactionally, the two conflict instead. With p = 1/4 the level settles
// while the structure is built, so writes to it are rare.

#ifndef STMBENCH7_SRC_CONTAINERS_SKIPLIST_INDEX_H_
#define STMBENCH7_SRC_CONTAINERS_SKIPLIST_INDEX_H_

#include <functional>
#include <new>

#include "src/common/rng.h"
#include "src/containers/index.h"
#include "src/ebr/ebr.h"
#include "src/stm/field.h"

namespace sb7 {

template <typename K, typename V>
class SkipListIndex : public Index<K, V> {
 public:
  SkipListIndex()
      : head_(Node::Make(K{}, V{}, kMaxHeight, nullptr)), level_(head_->unit(), 1) {}

  ~SkipListIndex() override {
    Node* node = head_;
    while (node != nullptr) {
      // raw-ok: destructor runs after the last transaction.
      Node* next = internal::DecodeWord<Node*>(node->next(0).LoadRaw());
      delete node;
      node = next;
    }
  }

  V Lookup(const K& key) const override {
    Node* node = FindGreaterOrEqual(key, level_.Get(), nullptr, nullptr);
    if (node != nullptr && node->key == key) {
      return node->value.Get();
    }
    return V{};
  }

  bool Insert(const K& key, V value) override {
    return LinkKey(key, value, level_.Get(), nullptr);
  }

  bool Remove(const K& key) override {
    Node* node = Unlink(key, level_.Get());
    if (node == nullptr) {
      return false;
    }
    Retire(node);
    return true;
  }

  // A node that the running attempt built (T3c's second to fourth nudge of
  // a part) is private to it: it is re-keyed in place and relinked with its
  // height. Any other node is retired after commit and replaced, as Remove
  // and Insert would.
  void Move(const K& from, const K& to, V value) override {
    const int level = level_.Get();
    Node* node = Unlink(from, level);
    if (node != nullptr && !node->unit().captured()) {
      Retire(node);
      node = nullptr;
    }
    if (!LinkKey(to, value, level, node) && node != nullptr) {
      // `to` was present and took the value. The spare node goes the way
      // of a removed one; its abort hook frees it if the attempt dies.
      Retire(node);
    }
  }

  void Range(const K& lo, const K& hi,
             const std::function<bool(const K&, const V&)>& fn) const override {
    Node* node = FindGreaterOrEqual(lo, level_.Get(), nullptr, nullptr);
    while (node != nullptr && !(hi < node->key)) {
      if (!fn(node->key, node->value.Get())) {
        return;
      }
      node = node->next(0).Get();
    }
  }

  void ForEach(const std::function<bool(const K&, const V&)>& fn) const override {
    Node* node = head_->next(0).Get();
    while (node != nullptr) {
      if (!fn(node->key, node->value.Get())) {
        return;
      }
      node = node->next(0).Get();
    }
  }

  // The list level: the height of the tallest node ever linked. For tests.
  int Level() const { return level_.Get(); }

  int64_t Size() const override {
    int64_t n = 0;
    Node* node = head_->next(0).Get();
    while (node != nullptr) {
      ++n;
      node = node->next(0).Get();
    }
    return n;
  }

 private:
  static constexpr int kMaxHeight = 16;

  struct Node;
  using Link = TxField<Node*>;

  // The links live in the same block, right behind the node. Only Make
  // creates nodes; `delete node` (and EBR's RetireObject) runs ~Node, which
  // destroys the links, and the class operator delete frees the block.
  struct Node : TmObject {
    // Link i starts at succs[i]; all links start null when succs is null.
    static Node* Make(const K& node_key, const V& node_value, int node_height,
                      Node* const* succs) {
      void* block =
          ::operator new(sizeof(Node) + static_cast<size_t>(node_height) * sizeof(Link));
      return new (block) Node(node_key, node_value, node_height, succs);
    }
    static void operator delete(void* block) { ::operator delete(block); }

    ~Node() override {
      for (int i = height_ - 1; i >= 0; --i) {
        next(i).~Link();
      }
    }

    Link& next(int level) { return links()[level]; }
    int height() const { return height_; }

    // Immutable once shared, so compared without transactional reads; only
    // Move re-keys a node, and only while the running attempt owns it.
    K key;
    TxField<V> value;

   private:
    // sizeof(Node) is a multiple of alignof(Node) >= alignof(TmObject).
    static_assert(alignof(Link) <= alignof(TmObject),
                  "links must be aligned when laid out behind the node");

    Node(const K& node_key, const V& node_value, int node_height, Node* const* succs)
        : key(node_key), value(unit(), node_value), height_(node_height) {
      for (int i = 0; i < node_height; ++i) {
        new (&links()[i]) Link(unit(), succs != nullptr ? succs[i] : nullptr);
      }
    }

    Link* links() { return reinterpret_cast<Link*>(this + 1); }

    const int height_;
  };

  static int HeightFor(const K& key) {
    uint64_t state = std::hash<K>{}(key) ^ 0xa5a5a5a55a5a5a5aull;
    uint64_t bits = SplitMix64Next(state);
    int height = 1;
    while (height < kMaxHeight && (bits & 3) == 0) {
      ++height;
      bits >>= 2;
    }
    return height;
  }

  // Unlinks the node holding `key`, searching from `level`, the list level,
  // and returns it (null when absent) for the caller to retire or relink.
  Node* Unlink(const K& key, int level) {
    Node* preds[kMaxHeight];
    Node* succs[kMaxHeight];
    Node* node = FindGreaterOrEqual(key, level, preds, succs);
    if (node == nullptr || !(node->key == key)) {
      return nullptr;
    }
    const int height = node->height();
    for (int l = 0; l < height; ++l) {
      // The predecessor at this level might not point at `node` (taller
      // predecessors can skip it only if heights disagree — they cannot for
      // the matched key, but guard for robustness).
      if (succs[l] == node) {
        preds[l]->next(l).Set(node->next(l).Get());
      }
    }
    return node;
  }

  // Maps `key` to `value`, searching from `level`, the list level. A present
  // key takes the value, and LinkKey returns false. Otherwise it links
  // `spare` under `key` or, when `spare` is null, a fresh node, and returns
  // true. A spare is a node the running attempt built and has unlinked: no
  // other thread can reach it, so its key and links change without the STM,
  // and it keeps its height, which `level` already covers.
  bool LinkKey(const K& key, V value, int level, Node* spare) {
    Node* preds[kMaxHeight];
    Node* succs[kMaxHeight];
    Node* node = FindGreaterOrEqual(key, level, preds, succs);
    if (node != nullptr && node->key == key) {
      node->value.Set(value);
      return false;
    }
    if (spare != nullptr) {
      spare->key = key;
      spare->value.Set(value);
      for (int l = 0; l < spare->height(); ++l) {
        spare->next(l).Set(succs[l]);
        preds[l]->next(l).Set(spare);
      }
      return true;
    }
    const int height = HeightFor(key);
    // No node was ever linked at or above the list level.
    for (int l = level; l < height; ++l) {
      preds[l] = head_;
      succs[l] = nullptr;
    }
    // The new node's links are born pointing at its successors.
    Node* fresh = Node::Make(key, value, height, succs);
    // Registered before the first transactional access: the writes below
    // may abort the attempt, and the node is not yet shared.
    if (Transaction* tx = CurrentTx()) {
      tx->OnAbort([fresh] { delete fresh; });
    }
    for (int l = 0; l < height; ++l) {
      preds[l]->next(l).Set(fresh);
    }
    if (height > level) {
      level_.Set(height);
    }
    return true;
  }

  // Frees an unlinked node once no reader can still hold it: through EBR,
  // after the commit when a transaction is running.
  static void Retire(Node* node) {
    if (Transaction* tx = CurrentTx()) {
      tx->OnCommit([node] { EbrDomain::Global().RetireObject(node); });
    } else {
      EbrDomain::Global().RetireObject(node);
    }
  }

  // Searches down from `top`, the list level, and returns the first node with
  // node->key >= key (nullptr if none). When `preds` is non-null, fills the
  // predecessor and its successor at every level below `top`.
  Node* FindGreaterOrEqual(const K& key, int top, Node** preds, Node** succs) const {
    Node* pred = head_;
    Node* next = nullptr;
    for (int level = top - 1; level >= 0; --level) {
      next = pred->next(level).Get();
      while (next != nullptr && next->key < key) {
        pred = next;
        next = pred->next(level).Get();
      }
      if (preds != nullptr) {
        preds[level] = pred;
        succs[level] = next;
      }
    }
    return next;
  }

  Node* head_;
  // Height of the tallest node ever linked, in [1, kMaxHeight]; a field of
  // the head's unit.
  TxField<int> level_;
};

}  // namespace sb7

#endif  // STMBENCH7_SRC_CONTAINERS_SKIPLIST_INDEX_H_
