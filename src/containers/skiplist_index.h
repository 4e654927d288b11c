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
// Node heights are derived deterministically from the key hash (p = 1/4),
// keeping structure shape independent of insertion interleaving, which the
// cross-backend equivalence tests rely on.
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
  SkipListIndex() : head_(Node::Make(K{}, V{}, kMaxHeight)), level_(head_->unit(), 1) {}

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
    Node* preds[kMaxHeight];
    Node* succs[kMaxHeight];
    const int level = level_.Get();
    Node* node = FindGreaterOrEqual(key, level, preds, succs);
    if (node != nullptr && node->key == key) {
      node->value.Set(value);
      return false;
    }
    const int height = HeightFor(key);
    Node* fresh = Node::Make(key, value, height);
    // Registered before the first transactional access: the reads and writes
    // below may abort the attempt, and the node is not yet shared.
    if (Transaction* tx = CurrentTx()) {
      tx->OnAbort([fresh] { delete fresh; });
    }
    // No node was ever linked at or above the list level.
    for (int l = level; l < height; ++l) {
      preds[l] = head_;
      succs[l] = nullptr;
    }
    for (int l = 0; l < height; ++l) {
      // raw-ok: the new node is thread-private until the predecessor links
      // below are written, so its own links are seeded directly.
      fresh->next(l).StoreRaw(internal::EncodeWord<Node*>(succs[l]));
    }
    for (int l = 0; l < height; ++l) {
      preds[l]->next(l).Set(fresh);
    }
    if (height > level) {
      level_.Set(height);
    }
    return true;
  }

  bool Remove(const K& key) override {
    Node* preds[kMaxHeight];
    Node* succs[kMaxHeight];
    Node* node = FindGreaterOrEqual(key, level_.Get(), preds, succs);
    if (node == nullptr || !(node->key == key)) {
      return false;
    }
    const int height = node->height();
    for (int level = 0; level < height; ++level) {
      // The predecessor at this level might not point at `node` (taller
      // predecessors can skip it only if heights disagree — they cannot for
      // the matched key, but guard for robustness).
      if (succs[level] == node) {
        preds[level]->next(level).Set(node->next(level).Get());
      }
    }
    if (Transaction* tx = CurrentTx()) {
      tx->OnCommit([node] { EbrDomain::Global().RetireObject(node); });
    } else {
      EbrDomain::Global().RetireObject(node);
    }
    return true;
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
    static Node* Make(const K& node_key, const V& node_value, int node_height) {
      void* block =
          ::operator new(sizeof(Node) + static_cast<size_t>(node_height) * sizeof(Link));
      return new (block) Node(node_key, node_value, node_height);
    }
    static void operator delete(void* block) { ::operator delete(block); }

    ~Node() override {
      for (int i = height_ - 1; i >= 0; --i) {
        next(i).~Link();
      }
    }

    Link& next(int level) { return links()[level]; }
    int height() const { return height_; }

    const K key;  // immutable: safe to compare without transactional reads
    TxField<V> value;

   private:
    // sizeof(Node) is a multiple of alignof(Node) >= alignof(TmObject).
    static_assert(alignof(Link) <= alignof(TmObject),
                  "links must be aligned when laid out behind the node");

    Node(const K& node_key, const V& node_value, int node_height)
        : key(node_key), value(unit(), node_value), height_(node_height) {
      for (int i = 0; i < node_height; ++i) {
        new (&links()[i]) Link(unit(), nullptr);
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
