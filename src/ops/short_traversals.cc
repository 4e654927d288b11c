// Short traversals ST1–ST10 (Appendix B.2.2): random paths through the
// structure, some via indexes, some updating what they visit.

#include <unordered_set>

#include "src/ops/operation.h"
#include "src/ops/traversal_helpers.h"

namespace sb7 {
namespace {

constexpr LockSet kPathPartsRead{
    .read = LockBit(kLockStructure) | kAllLevelBits | LockBit(kLockCompositeParts) |
            LockBit(kLockAtomicParts),
    .write = 0};
constexpr LockSet kPathPartsWrite{
    .read = LockBit(kLockStructure) | kAllLevelBits | LockBit(kLockCompositeParts),
    .write = LockBit(kLockAtomicParts)};
constexpr LockSet kPathDocRead{
    .read = LockBit(kLockStructure) | kAllLevelBits | LockBit(kLockCompositeParts) |
            LockBit(kLockDocuments),
    .write = 0};
constexpr LockSet kPathDocWrite{
    .read = LockBit(kLockStructure) | kAllLevelBits | LockBit(kLockCompositeParts),
    .write = LockBit(kLockDocuments)};
constexpr LockSet kBottomUpRead{
    .read = LockBit(kLockStructure) | kAllLevelBits | LockBit(kLockCompositeParts) |
            LockBit(kLockAtomicParts),
    .write = 0};
constexpr LockSet kBottomUpWrite{
    .read = LockBit(kLockStructure) | LockBit(kLockLevel1) | LockBit(kLockCompositeParts) |
            LockBit(kLockAtomicParts),
    .write = kComplexLevelBits};
constexpr LockSet kTitleScanRead{
    .read = LockBit(kLockStructure) | LockBit(kLockLevel1) | LockBit(kLockCompositeParts) |
            LockBit(kLockDocuments),
    .write = 0};
constexpr LockSet kBaseScanRead{
    .read = LockBit(kLockStructure) | LockBit(kLockLevel1) | LockBit(kLockCompositeParts),
    .write = 0};

// Walks a uniformly random root-to-base-assembly path; throws
// OperationFailed when the reached base assembly has no composite parts
// (possible once SM5/SM7 created unlinked assemblies).
CompositePart* RandomPathToCompositePart(DataHolder& dh, Rng& rng) {
  Assembly* node = dh.module()->design_root();
  while (!node->is_base()) {
    auto* complex = static_cast<ComplexAssembly*>(node);
    const int64_t n = complex->sub_assemblies().Size();
    SB7_CHECK(n > 0);  // SM6/SM8 never remove the last child
    node = complex->sub_assemblies().Get(static_cast<int64_t>(rng.NextBounded(n)));
  }
  auto* base = static_cast<BaseAssembly*>(node);
  const int64_t parts = base->components().Size();
  if (parts == 0) {
    throw OperationFailed{};
  }
  return base->components().Get(static_cast<int64_t>(rng.NextBounded(parts)));
}

// ST1 / ST6: random path to one atomic part; ST6 also swaps its x/y.
class RandomPathToAtomicPart : public Operation {
 public:
  RandomPathToAtomicPart(std::string name, bool update)
      : Operation(std::move(name), OpCategory::kShortTraversal, !update,
                  update ? kPathPartsWrite : kPathPartsRead),
        update_(update) {}

  int64_t Run(DataHolder& dh, Rng& rng) const override {
    CompositePart* part = RandomPathToCompositePart(dh, rng);
    const auto& atoms = part->parts();
    AtomicPart* atom = atoms[rng.NextBounded(static_cast<uint64_t>(atoms.size()))];
    const int64_t sum = atom->x() + atom->y();
    if (update_) {
      atom->SwapXY();
    }
    return sum;
  }

 private:
  const bool update_;
};

// ST2 / ST7: random path to one document; ST7 toggles the phrase.
class RandomPathToDocument : public Operation {
 public:
  RandomPathToDocument(std::string name, bool update)
      : Operation(std::move(name), OpCategory::kShortTraversal, !update,
                  update ? kPathDocWrite : kPathDocRead),
        update_(update) {}

  int64_t Run(DataHolder& dh, Rng& rng) const override {
    Document* doc = RandomPathToCompositePart(dh, rng)->documentation();
    return update_ ? doc->TogglePhrase() : doc->CountChar('I');
  }

 private:
  const bool update_;
};

// ST3 / ST8 (T7 in OO7): bottom-up from a random atomic part to the root,
// visiting each complex assembly at most once; ST8 updates them.
class BottomUpTraversal : public Operation {
 public:
  BottomUpTraversal(std::string name, bool update)
      : Operation(std::move(name), OpCategory::kShortTraversal, !update,
                  update ? kBottomUpWrite : kBottomUpRead),
        update_(update) {}

  int64_t Run(DataHolder& dh, Rng& rng) const override {
    AtomicPart* atom = dh.atomic_part_id_index().Lookup(RandomId(dh.atomic_part_ids(), rng));
    if (atom == nullptr) {
      throw OperationFailed{};
    }
    CompositePart* part = atom->part_of();
    if (part->used_in().Size() == 0) {
      throw OperationFailed{};
    }
    std::unordered_set<ComplexAssembly*> seen;
    part->used_in().ForEach([&](BaseAssembly* base) {
      for (ComplexAssembly* up = base->super_assembly(); up != nullptr;
           up = up->super_assembly()) {
        if (!seen.insert(up).second) {
          break;  // everything above has been visited already
        }
        if (update_) {
          up->NudgeBuildDate();
        } else {
          up->ReadVisit();
        }
      }
    });
    return static_cast<int64_t>(seen.size());
  }

 private:
  const bool update_;
};

// ST4 (Q4 in OO7): 100 random document titles; read-visit the base
// assemblies above every document found.
class TitleLookupTraversal : public Operation {
 public:
  TitleLookupTraversal()
      : Operation("ST4", OpCategory::kShortTraversal, /*read_only=*/true, kTitleScanRead) {}

  int64_t Run(DataHolder& dh, Rng& rng) const override {
    int64_t visited = 0;
    for (int i = 0; i < 100; ++i) {
      const int64_t part_id = RandomId(dh.composite_part_ids(), rng);
      Document* doc = dh.document_title_index().Lookup(DataHolder::DocumentTitleFor(part_id));
      if (doc == nullptr) {
        continue;
      }
      doc->part()->used_in().ForEach([&visited](BaseAssembly* base) {
        base->ReadVisit();
        ++visited;
      });
    }
    return visited;
  }
};

// ST5 (Q5 in OO7): scan the base assembly index for assemblies older than
// one of their composite parts.
class BaseAssemblyScan : public Operation {
 public:
  BaseAssemblyScan()
      : Operation("ST5", OpCategory::kShortTraversal, /*read_only=*/true, kBaseScanRead) {}

  int64_t Run(DataHolder& dh, Rng& rng) const override {
    (void)rng;
    int64_t matched = 0;
    dh.base_assembly_id_index().ForEach([&matched](const int64_t&, BaseAssembly* const& base) {
      const Date base_date = base->build_date();
      bool found = false;
      base->components().ForEach([&](CompositePart* part) {
        if (part->build_date() > base_date) {
          found = true;
          return false;
        }
        return true;
      });
      if (found) {
        base->ReadVisit();
        ++matched;
      }
      return true;
    });
    return matched;
  }
};

// ST9 / ST10: random path to a composite part, then a full DFS over its
// atomic part graph; ST10 updates every part visited.
class RandomPathGraphTraversal : public Operation {
 public:
  RandomPathGraphTraversal(std::string name, bool update)
      : Operation(std::move(name), OpCategory::kShortTraversal, !update,
                  update ? kPathPartsWrite : kPathPartsRead),
        update_(update) {}

  int64_t Run(DataHolder& dh, Rng& rng) const override {
    CompositePart* part = RandomPathToCompositePart(dh, rng);
    return TraverseAtomicGraph(part->root_part(), [this](AtomicPart* atom) {
      if (update_) {
        atom->SwapXY();
      } else {
        atom->ReadVisit();
      }
    });
  }

 private:
  const bool update_;
};

}  // namespace

void AppendShortTraversals(std::vector<std::unique_ptr<Operation>>& out) {
  out.push_back(std::make_unique<RandomPathToAtomicPart>("ST1", /*update=*/false));
  out.push_back(std::make_unique<RandomPathToDocument>("ST2", /*update=*/false));
  out.push_back(std::make_unique<BottomUpTraversal>("ST3", /*update=*/false));
  out.push_back(std::make_unique<TitleLookupTraversal>());
  out.push_back(std::make_unique<BaseAssemblyScan>());
  out.push_back(std::make_unique<RandomPathToAtomicPart>("ST6", /*update=*/true));
  out.push_back(std::make_unique<RandomPathToDocument>("ST7", /*update=*/true));
  out.push_back(std::make_unique<BottomUpTraversal>("ST8", /*update=*/true));
  out.push_back(std::make_unique<RandomPathGraphTraversal>("ST9", /*update=*/false));
  out.push_back(std::make_unique<RandomPathGraphTraversal>("ST10", /*update=*/true));
}

}  // namespace sb7
