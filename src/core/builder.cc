#include "src/core/builder.h"

#include <vector>

#include "src/common/text.h"
#include "src/ebr/ebr.h"

namespace sb7 {
namespace {

// Schedules `fn` for after the commit point under an STM strategy, or runs
// it immediately under a locking strategy (where the enclosing locks already
// guarantee exclusivity).
template <typename Fn>
void AfterCommit(Fn&& fn) {
  if (Transaction* tx = CurrentTx()) {
    tx->OnCommit(std::forward<Fn>(fn));
  } else {
    fn();
  }
}

void RetireOnAbort(TmObject* obj) {
  if (Transaction* tx = CurrentTx()) {
    tx->OnAbort([obj] { delete obj; });
  }
}

}  // namespace

Date RandomDate(const Parameters& params, Rng& rng) {
  return rng.NextInRange(params.min_build_date, params.max_build_date);
}

bool CanCreateCompositePart(DataHolder& dh) {
  return dh.composite_part_ids().Available() >= 1 &&
         dh.atomic_part_ids().Available() >= dh.params().atomic_parts_per_composite;
}

CompositePart* CreateCompositePart(DataHolder& dh, Rng& rng) {
  const Parameters& params = dh.params();
  const int64_t part_id = dh.composite_part_ids().Allocate();
  SB7_CHECK(part_id != 0);

  auto* document = new Document(part_id, DataHolder::DocumentTitleFor(part_id),
                                BuildDocumentText(part_id, params.document_size));
  auto* part = new CompositePart(part_id, RandomDate(params, rng), document);
  // If the enclosing transaction aborts, the private graph never became
  // shared and is freed outright. Registered before the first transactional
  // access below (IdPool::Allocate is one), so an attempt that aborts midway
  // frees what it built so far: the part, its document and every atomic
  // part and connection already linked to it.
  if (Transaction* tx = CurrentTx()) {
    tx->OnAbort([part] { RetireCompositePartDeep(part); });
  }
  document->set_part(part);

  // Private graph construction: parts and connections are wired directly and
  // become shared only when the index insertions below commit.
  const int n = params.atomic_parts_per_composite;
  std::vector<AtomicPart*> atoms;
  atoms.reserve(n);
  for (int i = 0; i < n; ++i) {
    const int64_t atom_id = dh.atomic_part_ids().Allocate();
    SB7_CHECK(atom_id != 0);
    auto* atom =
        new AtomicPart(atom_id, RandomDate(params, rng),
                       /*x=*/rng.NextInRange(0, 99'999), /*y=*/rng.NextInRange(0, 99'999));
    atom->set_part_of(part);
    part->AddPart(atom);
    atoms.push_back(atom);
  }
  part->set_root_part(atoms[0]);
  for (int i = 0; i < n; ++i) {
    // One ring connection keeps every graph connected; the rest are random.
    AtomicPart* from = atoms[i];
    AtomicPart* ring_to = atoms[(i + 1) % n];
    auto* ring = new Connection(from, ring_to, static_cast<int32_t>(rng.NextInRange(1, 100)));
    from->AddOutgoing(ring);
    ring_to->AddIncoming(ring);
    for (int c = 1; c < params.connections_per_atomic; ++c) {
      AtomicPart* to = atoms[rng.NextBounded(static_cast<uint64_t>(n))];
      auto* conn = new Connection(from, to, static_cast<int32_t>(rng.NextInRange(1, 100)));
      from->AddOutgoing(conn);
      to->AddIncoming(conn);
    }
  }

  dh.composite_part_id_index().Insert(part_id, part);
  dh.document_title_index().Insert(document->title(), document);
  for (AtomicPart* atom : atoms) {
    dh.atomic_part_id_index().Insert(atom->id(), atom);
    dh.atomic_part_date_index().Insert(MakeDateKey(atom->build_date(), atom->id()), atom);
  }
  return part;
}

void RetireCompositePartDeep(CompositePart* part) {
  EbrDomain& ebr = EbrDomain::Global();
  for (AtomicPart* atom : part->parts()) {
    for (Connection* conn : atom->outgoing()) {
      ebr.RetireObject(conn);
    }
    ebr.RetireObject(atom);
  }
  ebr.RetireObject(part->documentation());
  ebr.RetireObject(part);
}

void DeleteCompositePart(DataHolder& dh, CompositePart* part) {
  // Unlink from every base assembly that references it; the bag may hold the
  // same assembly several times (SM3 permits duplicate links). Snapshot the
  // bag first: mutating while iterating is undefined for Tx collections.
  std::vector<BaseAssembly*> users;
  part->used_in().ForEach([&users](BaseAssembly* assembly) { users.push_back(assembly); });
  for (BaseAssembly* assembly : users) {
    assembly->components().RemoveOne(part);
  }

  dh.composite_part_id_index().Remove(part->id());
  dh.document_title_index().Remove(part->documentation()->title());
  for (AtomicPart* atom : part->parts()) {
    dh.atomic_part_id_index().Remove(atom->id());
    dh.atomic_part_date_index().Remove(MakeDateKey(atom->build_date(), atom->id()));
    dh.atomic_part_ids().Release(atom->id());
  }
  dh.composite_part_ids().Release(part->id());

  AfterCommit([part] { RetireCompositePartDeep(part); });
}

bool CanCreateBaseAssembly(DataHolder& dh) { return dh.base_assembly_ids().Available() >= 1; }

BaseAssembly* CreateBaseAssembly(DataHolder& dh, ComplexAssembly* parent, Rng& rng) {
  const int64_t id = dh.base_assembly_ids().Allocate();
  SB7_CHECK(id != 0);
  auto* assembly = new BaseAssembly(id, RandomDate(dh.params(), rng), parent, parent->module());
  RetireOnAbort(assembly);
  parent->sub_assemblies().Add(assembly);
  dh.base_assembly_id_index().Insert(id, assembly);
  return assembly;
}

void DeleteBaseAssembly(DataHolder& dh, BaseAssembly* assembly) {
  std::vector<CompositePart*> components;
  assembly->components().ForEach(
      [&components](CompositePart* part) { components.push_back(part); });
  for (CompositePart* part : components) {
    part->used_in().RemoveOne(assembly);
  }
  assembly->super_assembly()->sub_assemblies().Remove(assembly);
  dh.base_assembly_id_index().Remove(assembly->id());
  dh.base_assembly_ids().Release(assembly->id());
  AfterCommit([assembly] { EbrDomain::Global().RetireObject(assembly); });
}

std::pair<int64_t, int64_t> SubtreeNodeCounts(const Parameters& params, int root_level) {
  // Levels root_level..2 hold complex assemblies, level 1 base assemblies.
  int64_t complexes = 0;
  int64_t layer = 1;
  for (int level = root_level; level >= 2; --level) {
    complexes += layer;
    layer *= params.assembly_fanout;
  }
  if (root_level == 1) {
    return {0, 1};
  }
  return {complexes, layer};
}

bool CanCreateSubtree(DataHolder& dh, int root_level) {
  const auto [complexes, bases] = SubtreeNodeCounts(dh.params(), root_level);
  return dh.complex_assembly_ids().Available() >= complexes &&
         dh.base_assembly_ids().Available() >= bases;
}

Assembly* CreateAssemblySubtree(DataHolder& dh, ComplexAssembly* parent, int root_level,
                                Rng& rng) {
  if (root_level == 1) {
    return CreateBaseAssembly(dh, parent, rng);
  }
  const int64_t id = dh.complex_assembly_ids().Allocate();
  SB7_CHECK(id != 0);
  auto* assembly =
      new ComplexAssembly(id, RandomDate(dh.params(), rng), root_level, parent, parent->module());
  RetireOnAbort(assembly);
  parent->sub_assemblies().Add(assembly);
  dh.complex_assembly_id_index().Insert(id, assembly);
  for (int i = 0; i < dh.params().assembly_fanout; ++i) {
    CreateAssemblySubtree(dh, assembly, root_level - 1, rng);
  }
  return assembly;
}

void DeleteAssemblySubtree(DataHolder& dh, ComplexAssembly* assembly) {
  std::vector<Assembly*> children;
  assembly->sub_assemblies().ForEach([&children](Assembly* child) { children.push_back(child); });
  for (Assembly* child : children) {
    if (child->is_base()) {
      DeleteBaseAssembly(dh, static_cast<BaseAssembly*>(child));
    } else {
      DeleteAssemblySubtree(dh, static_cast<ComplexAssembly*>(child));
    }
  }
  if (assembly->super_assembly() != nullptr) {
    assembly->super_assembly()->sub_assemblies().Remove(assembly);
  }
  dh.complex_assembly_id_index().Remove(assembly->id());
  dh.complex_assembly_ids().Release(assembly->id());
  AfterCommit([assembly] { EbrDomain::Global().RetireObject(assembly); });
}

}  // namespace sb7
