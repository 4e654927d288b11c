// Shared traversal building blocks for the operation implementations.

#ifndef STMBENCH7_SRC_OPS_TRAVERSAL_HELPERS_H_
#define STMBENCH7_SRC_OPS_TRAVERSAL_HELPERS_H_

#include <cstdint>
#include <vector>

#include "src/common/hotspot.h"
#include "src/core/data_holder.h"
#include "src/core/objects.h"

namespace sb7 {

// Depth-first walk over the assembly tree, applying `fn` to every base
// assembly. Children are read transactionally through the Tx collections.
template <typename Fn>
void ForEachBaseAssembly(ComplexAssembly* root, Fn&& fn) {
  root->sub_assemblies().ForEach([&fn](Assembly* child) {
    if (child->is_base()) {
      fn(static_cast<BaseAssembly*>(child));
    } else {
      ForEachBaseAssembly(static_cast<ComplexAssembly*>(child), fn);
    }
  });
}

// Depth-first walk over an atomic-part graph via outgoing connections,
// starting at `root`; `fn` is applied to each part exactly once. Returns the
// number of parts visited. The graph shape is immutable (only attributes are
// mutable), so visits are marked in plain local state, by each part's
// position in its composite part's part set.
template <typename Fn>
int64_t TraverseAtomicGraph(AtomicPart* root, Fn&& fn) {
  const size_t parts = root->part_of()->parts().size();
  std::vector<uint8_t> seen(parts, 0);
  std::vector<AtomicPart*> stack;
  stack.reserve(parts);  // each part is pushed at most once
  stack.push_back(root);
  seen[root->index_in_part()] = 1;
  int64_t visited = 0;
  while (!stack.empty()) {
    AtomicPart* part = stack.back();
    stack.pop_back();
    fn(part);
    ++visited;
    for (Connection* conn : part->outgoing()) {
      AtomicPart* to = conn->to();
      if (seen[to->index_in_part()] == 0) {
        seen[to->index_in_part()] = 1;
        stack.push_back(to);
      }
    }
  }
  return visited;
}

// Updates an atomic part's *indexed* build date (T3a/b/c, OP15): the date
// index must track the change, mirroring how the original benchmark updates
// the index inside the operation. The entry moves in one index update.
inline void UpdateAtomicPartDateIndexed(DataHolder& dh, AtomicPart* part) {
  const Date old_date = part->build_date();
  const Date new_date = part->NudgeBuildDate();
  dh.atomic_part_date_index().Move(MakeDateKey(old_date, part->id()),
                                   MakeDateKey(new_date, part->id()), part);
}

// Random id in [1, pool.capacity()] — the benchmark's designed failure
// source: the id may currently be unassigned. Uniform by default; under an
// active hotspot policy (scenario engine) the draw is Zipfian so traversal
// entry points and index keys concentrate on the low-id hot set.
inline int64_t RandomId(const IdPool& pool, Rng& rng) {
  return SampleHotspotId(pool.capacity(), rng);
}

}  // namespace sb7

#endif  // STMBENCH7_SRC_OPS_TRAVERSAL_HELPERS_H_
