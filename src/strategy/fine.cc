#include "src/strategy/fine.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "src/ops/traversal_helpers.h"

namespace sb7 {
namespace {

// --- plan-building helpers -------------------------------------------------

void AddAllCompositeParts(DataHolder& dh, FinePlan& plan, bool write) {
  dh.composite_part_id_index().ForEach(
      [&plan, write](const int64_t&, CompositePart* const& part) {
        if (write) {
          plan.AddWrite(*part);
        } else {
          plan.AddRead(*part);
        }
        return true;
      });
}

void AddAllBaseAssemblies(DataHolder& dh, FinePlan& plan, bool write) {
  dh.base_assembly_id_index().ForEach(
      [&plan, write](const int64_t&, BaseAssembly* const& base) {
        if (write) {
          plan.AddWrite(*base);
        } else {
          plan.AddRead(*base);
        }
        return true;
      });
}

void AddAllComplexAssemblies(DataHolder& dh, FinePlan& plan, bool write) {
  dh.complex_assembly_id_index().ForEach(
      [&plan, write](const int64_t&, ComplexAssembly* const& assembly) {
        if (write) {
          plan.AddWrite(*assembly);
        } else {
          plan.AddRead(*assembly);
        }
        return true;
      });
}

// Replays the random root-to-composite-part walk of ST1/ST2/ST6/ST7/ST9/ST10
// (see ops/short_traversals.cc) on the planner's RNG copy; the walk reads
// only topology. Returns nullptr when the real run will fail.
CompositePart* ReplayRandomPath(DataHolder& dh, Rng& rng) {
  Assembly* node = dh.module()->design_root();
  while (!node->is_base()) {
    auto* complex = static_cast<ComplexAssembly*>(node);
    const int64_t n = complex->sub_assemblies().Size();
    node = complex->sub_assemblies().Get(static_cast<int64_t>(rng.NextBounded(n)));
  }
  auto* base = static_cast<BaseAssembly*>(node);
  const int64_t parts = base->components().Size();
  if (parts == 0) {
    return nullptr;
  }
  return base->components().Get(static_cast<int64_t>(rng.NextBounded(parts)));
}

void PlanPathOp(DataHolder& dh, Rng& rng, FinePlan& plan, bool write) {
  if (CompositePart* part = ReplayRandomPath(dh, rng)) {
    if (write) {
      plan.AddWrite(*part);
    } else {
      plan.AddRead(*part);
    }
  }
}

// ST3 / ST8: bottom-up walk; visits each complex assembly once.
void PlanBottomUp(DataHolder& dh, Rng& rng, FinePlan& plan, bool write) {
  AtomicPart* atom = dh.atomic_part_id_index().Lookup(RandomId(dh.atomic_part_ids(), rng));
  if (atom == nullptr) {
    return;  // the real run fails identically
  }
  std::unordered_set<ComplexAssembly*> seen;
  atom->part_of()->used_in().ForEach([&](BaseAssembly* base) {
    for (ComplexAssembly* up = base->super_assembly(); up != nullptr;
         up = up->super_assembly()) {
      if (!seen.insert(up).second) {
        break;
      }
      if (write) {
        plan.AddWrite(*up);
      } else {
        plan.AddRead(*up);
      }
    }
  });
}

// ST4: 100 title probes; reads the base assemblies above each found part.
void PlanTitleLookups(DataHolder& dh, Rng& rng, FinePlan& plan) {
  for (int i = 0; i < 100; ++i) {
    const int64_t part_id = RandomId(dh.composite_part_ids(), rng);
    Document* doc = dh.document_title_index().Lookup(DataHolder::DocumentTitleFor(part_id));
    if (doc == nullptr) {
      continue;
    }
    doc->part()->used_in().ForEach([&plan](BaseAssembly* base) { plan.AddRead(*base); });
  }
}

// OP1 / OP9 / OP15: ten id probes; touches the owning composite parts.
void PlanTenRandomParts(DataHolder& dh, Rng& rng, FinePlan& plan, bool write) {
  for (int i = 0; i < 10; ++i) {
    AtomicPart* atom = dh.atomic_part_id_index().Lookup(RandomId(dh.atomic_part_ids(), rng));
    if (atom == nullptr) {
      continue;
    }
    if (write) {
      plan.AddWrite(*atom->part_of());
    } else {
      plan.AddRead(*atom->part_of());
    }
  }
}

// OP6 / OP12: the random complex assembly's siblings (or the root itself).
void PlanComplexSiblings(DataHolder& dh, Rng& rng, FinePlan& plan, bool write) {
  ComplexAssembly* assembly =
      dh.complex_assembly_id_index().Lookup(RandomId(dh.complex_assembly_ids(), rng));
  if (assembly == nullptr) {
    return;
  }
  auto add = [&plan, write](Assembly* target) {
    if (write) {
      plan.AddWrite(*target);
    } else {
      plan.AddRead(*target);
    }
  };
  ComplexAssembly* parent = assembly->super_assembly();
  if (parent == nullptr) {
    add(assembly);
    return;
  }
  parent->sub_assemblies().ForEach([&add](Assembly* sibling) { add(sibling); });
}

// OP7 / OP13: the random base assembly's siblings.
void PlanBaseSiblings(DataHolder& dh, Rng& rng, FinePlan& plan, bool write) {
  BaseAssembly* base = dh.base_assembly_id_index().Lookup(RandomId(dh.base_assembly_ids(), rng));
  if (base == nullptr) {
    return;
  }
  base->super_assembly()->sub_assemblies().ForEach([&plan, write](Assembly* sibling) {
    if (write) {
      plan.AddWrite(*sibling);
    } else {
      plan.AddRead(*sibling);
    }
  });
}

// OP8 / OP14: the random base assembly's composite parts.
void PlanBaseComponents(DataHolder& dh, Rng& rng, FinePlan& plan, bool write) {
  BaseAssembly* base = dh.base_assembly_id_index().Lookup(RandomId(dh.base_assembly_ids(), rng));
  if (base == nullptr) {
    return;
  }
  base->components().ForEach([&plan, write](CompositePart* part) {
    if (write) {
      plan.AddWrite(*part);
    } else {
      plan.AddRead(*part);
    }
  });
}

}  // namespace

bool PlanFineLocks(const Operation& op, DataHolder& dh, Rng rng, FinePlan& plan) {
  if (op.category() == OpCategory::kStructureModification) {
    return false;  // runs under the exclusive structure lock
  }
  const std::string& name = op.name();

  // Long traversals and date-predicate queries: conservative superset plans
  // (their exact object set depends on mutable attributes).
  if (name == "T1" || name == "T6" || name == "Q7" || name == "T4") {
    AddAllCompositeParts(dh, plan, /*write=*/false);
  } else if (name == "T2a" || name == "T2b" || name == "T2c" || name == "T5") {
    AddAllCompositeParts(dh, plan, /*write=*/true);
  } else if (name == "T3a" || name == "T3b" || name == "T3c") {
    AddAllCompositeParts(dh, plan, /*write=*/true);
    plan.set_date_index_mode(FinePlan::Mode::kWrite);
  } else if (name == "Q6") {
    AddAllCompositeParts(dh, plan, /*write=*/false);
    AddAllBaseAssemblies(dh, plan, /*write=*/false);
    AddAllComplexAssemblies(dh, plan, /*write=*/false);
  } else if (name == "ST5") {
    AddAllCompositeParts(dh, plan, /*write=*/false);
    AddAllBaseAssemblies(dh, plan, /*write=*/false);
  } else if (name == "ST1" || name == "ST2" || name == "ST9") {
    PlanPathOp(dh, rng, plan, /*write=*/false);
  } else if (name == "ST6" || name == "ST7" || name == "ST10") {
    PlanPathOp(dh, rng, plan, /*write=*/true);
  } else if (name == "ST3") {
    PlanBottomUp(dh, rng, plan, /*write=*/false);
  } else if (name == "ST8") {
    PlanBottomUp(dh, rng, plan, /*write=*/true);
  } else if (name == "ST4") {
    PlanTitleLookups(dh, rng, plan);
  } else if (name == "OP1") {
    PlanTenRandomParts(dh, rng, plan, /*write=*/false);
  } else if (name == "OP9") {
    PlanTenRandomParts(dh, rng, plan, /*write=*/true);
  } else if (name == "OP15") {
    PlanTenRandomParts(dh, rng, plan, /*write=*/true);
    plan.set_date_index_mode(FinePlan::Mode::kWrite);
  } else if (name == "OP2" || name == "OP3") {
    AddAllCompositeParts(dh, plan, /*write=*/false);
    plan.set_date_index_mode(FinePlan::Mode::kRead);
  } else if (name == "OP10") {
    AddAllCompositeParts(dh, plan, /*write=*/true);
    plan.set_date_index_mode(FinePlan::Mode::kRead);
  } else if (name == "OP4" || name == "OP5") {
    plan.AddRead(dh.manual()->unit());
  } else if (name == "OP11") {
    plan.AddWrite(dh.manual()->unit());
  } else if (name == "OP6") {
    PlanComplexSiblings(dh, rng, plan, /*write=*/false);
  } else if (name == "OP12") {
    PlanComplexSiblings(dh, rng, plan, /*write=*/true);
  } else if (name == "OP7") {
    PlanBaseSiblings(dh, rng, plan, /*write=*/false);
  } else if (name == "OP13") {
    PlanBaseSiblings(dh, rng, plan, /*write=*/true);
  } else if (name == "OP8") {
    PlanBaseComponents(dh, rng, plan, /*write=*/false);
  } else if (name == "OP14") {
    PlanBaseComponents(dh, rng, plan, /*write=*/true);
  } else {
    // Unknown operation: fall back to the most conservative plan.
    AddAllCompositeParts(dh, plan, /*write=*/true);
    AddAllBaseAssemblies(dh, plan, /*write=*/true);
    AddAllComplexAssemblies(dh, plan, /*write=*/true);
    plan.AddWrite(dh.manual()->unit());
    plan.set_date_index_mode(FinePlan::Mode::kWrite);
  }
  return true;
}

namespace {

// Pass-through transaction that checks every field access against the plan
// (audit mode). Commit hooks registered by the operation (EBR retirements,
// text swaps) run when the audited execution finishes.
class AuditTx : public Transaction {
 public:
  explicit AuditTx(const FinePlan& plan) : plan_(plan) {}

  uint64_t Read(const TxFieldBase& field) override {
    const TmUnit& unit = field.owner();
    SB7_CHECK(unit.Cover()->topology() || unit.topology() || plan_.Covers(unit, false));
    // raw-ok: the fine-lock plan covering this unit serializes the access.
    return field.LoadRaw();
  }

  void Write(TxFieldBase& field, uint64_t value) override {
    SB7_CHECK(plan_.Covers(field.owner(), true));
    // raw-ok: the fine-lock plan covering this unit serializes the access.
    field.StoreRaw(value);
  }

  void FinishCommit() { RunCommitHooks(); }

 private:
  const FinePlan& plan_;
};

}  // namespace

int FineLockStrategy::StripeOf(const TmUnit* unit) {
  static_assert(FineLockStrategy::kStripes == 1 << 10, "hash shift assumes 1024 stripes");
  const auto addr = reinterpret_cast<uintptr_t>(unit);
  const uint64_t h = (static_cast<uint64_t>(addr) >> 4) * 0x9e3779b97f4a7c15ull;
  return static_cast<int>(h >> (64 - 10));
}

int64_t FineLockStrategy::Execute(const Operation& op, DataHolder& dh, Rng& rng) {
  if (op.category() == OpCategory::kStructureModification) {
    WriteGuard guard(structure_lock_);
    return op.Run(dh, rng);
  }

  ReadGuard structure_guard(structure_lock_);

  // Plan on a copy of the RNG: the real run below replays the same choices.
  FinePlan plan;
  PlanFineLocks(op, dh, rng, plan);

  // Date index lock (the only index with non-SM writers), then the object
  // stripes in ascending order — a total order, hence deadlock freedom.
  const FinePlan::Mode date_mode = plan.date_index_mode();
  if (date_mode == FinePlan::Mode::kWrite) {
    date_index_lock_.LockWrite();
  } else if (date_mode == FinePlan::Mode::kRead) {
    date_index_lock_.LockRead();
  }

  // Stripe set: collisions merge (write wins).
  std::vector<std::pair<int, bool>> stripes;
  stripes.reserve(plan.objects().size());
  for (const auto& [unit, write] : plan.objects()) {
    stripes.emplace_back(StripeOf(unit), write);
  }
  std::sort(stripes.begin(), stripes.end());
  int count = 0;
  for (size_t i = 0; i < stripes.size(); ++i) {
    if (count > 0 && stripes[count - 1].first == stripes[i].first) {
      stripes[count - 1].second = stripes[count - 1].second || stripes[i].second;
    } else {
      stripes[count++] = stripes[i];
    }
  }
  stripes.resize(count);

  for (const auto& [stripe, write] : stripes) {
    if (write) {
      stripes_[stripe].LockWrite();
    } else {
      stripes_[stripe].LockRead();
    }
  }

  struct Releaser {
    FineLockStrategy* strategy;
    const std::vector<std::pair<int, bool>>& held;
    FinePlan::Mode date_mode;
    ~Releaser() {
      for (auto it = held.rbegin(); it != held.rend(); ++it) {
        if (it->second) {
          strategy->stripes_[it->first].UnlockWrite();
        } else {
          strategy->stripes_[it->first].UnlockRead();
        }
      }
      if (date_mode == FinePlan::Mode::kWrite) {
        strategy->date_index_lock_.UnlockWrite();
      } else if (date_mode == FinePlan::Mode::kRead) {
        strategy->date_index_lock_.UnlockRead();
      }
    }
  } releaser{this, stripes, date_mode};

  if (!audit_mode_) {
    return op.Run(dh, rng);
  }
  AuditTx audit(plan);
  SetCurrentTx(&audit);
  try {
    const int64_t result = op.Run(dh, rng);
    SetCurrentTx(nullptr);
    audit.FinishCommit();
    return result;
  } catch (...) {
    SetCurrentTx(nullptr);
    audit.FinishCommit();  // failures are committed outcomes
    throw;
  }
}

}  // namespace sb7
