// Tests for all 45 operations: registry metadata, Appendix-B semantics,
// failure behaviour, and structure invariants after every operation.
//
// Operations run in direct mode (no strategy) on a deterministic tiny
// structure — the operation logic itself is strategy-independent.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/core/invariants.h"
#include "src/core/builder.h"
#include "src/stm/stm_factory.h"
#include "src/ops/operation.h"
#include "src/ops/traversal_helpers.h"

namespace sb7 {
namespace {

std::unique_ptr<DataHolder> MakeWorld(uint64_t seed = 77) {
  DataHolder::Setup setup;
  setup.params = Parameters::Tiny();
  setup.index_kind = IndexKind::kStdMap;
  setup.seed = seed;
  return std::make_unique<DataHolder>(setup);
}

class OpsTest : public ::testing::Test {
 protected:
  OperationRegistry registry_;
};

TEST_F(OpsTest, RegistryHasAll45InSpecificationOrder) {
  const auto& ops = registry_.all();
  ASSERT_EQ(ops.size(), 45u);
  EXPECT_EQ(ops[0]->name(), "T1");
  EXPECT_EQ(ops[11]->name(), "Q7");
  EXPECT_EQ(ops[12]->name(), "ST1");
  EXPECT_EQ(ops[21]->name(), "ST10");
  EXPECT_EQ(ops[22]->name(), "OP1");
  EXPECT_EQ(ops[36]->name(), "OP15");
  EXPECT_EQ(ops[37]->name(), "SM1");
  EXPECT_EQ(ops[44]->name(), "SM8");

  std::map<std::string, int> names;
  for (const auto& op : ops) {
    names[op->name()]++;
  }
  EXPECT_EQ(names.size(), 45u);  // unique names
  EXPECT_EQ(registry_.Find("T2b")->name(), "T2b");
  EXPECT_EQ(registry_.Find("nope"), nullptr);
}

TEST_F(OpsTest, CategoryAndReadOnlyCountsMatchTheSpec) {
  int counts[4] = {};
  int read_only[4] = {};
  for (const auto& op : registry_.all()) {
    const int c = static_cast<int>(op->category());
    counts[c]++;
    read_only[c] += op->read_only() ? 1 : 0;
  }
  EXPECT_EQ(counts[0], 12);  // long traversals: T1-T6 (8 variants), Q6, Q7
  EXPECT_EQ(counts[1], 10);
  EXPECT_EQ(counts[2], 15);
  EXPECT_EQ(counts[3], 8);
  EXPECT_EQ(read_only[0], 5);  // T1, T4, T6, Q6, Q7
  EXPECT_EQ(read_only[1], 6);  // ST1-ST5, ST9
  EXPECT_EQ(read_only[2], 8);  // OP1-OP8
  EXPECT_EQ(read_only[3], 0);  // all SMs update
}

TEST_F(OpsTest, StructureModsTakeOnlyTheStructureLockInWriteMode) {
  for (const auto& op : registry_.all()) {
    if (op->category() == OpCategory::kStructureModification) {
      EXPECT_EQ(op->locks().write, LockBit(kLockStructure)) << op->name();
      EXPECT_EQ(op->locks().read, 0) << op->name();
    } else {
      // Everyone else holds the structure lock in read mode (Figure 5).
      EXPECT_NE(op->locks().read & LockBit(kLockStructure), 0) << op->name();
    }
  }
}

TEST_F(OpsTest, UpdateOperationsDeclareAWriteLock) {
  for (const auto& op : registry_.all()) {
    if (!op->read_only()) {
      EXPECT_NE(op->locks().write, 0) << op->name();
    } else {
      EXPECT_EQ(op->locks().write, 0) << op->name();
    }
  }
}

// Runs the op with tolerance for benchmark failures; returns result or -1.
int64_t TryRun(const Operation& op, DataHolder& dh, Rng& rng) {
  try {
    return op.Run(dh, rng);
  } catch (const OperationFailed&) {
    return -1;
  }
}

TEST_F(OpsTest, LongTraversalCountsMatchStructure) {
  auto dh = MakeWorld();
  Rng rng(1);
  const Parameters& params = dh->params();

  // Number of base-assembly -> composite-part links at build time.
  const int64_t links =
      params.base_assembly_count() * params.components_per_assembly;
  const int64_t per_graph = params.atomic_parts_per_composite;

  EXPECT_EQ(registry_.Find("T1")->Run(*dh, rng), links * per_graph);
  EXPECT_EQ(registry_.Find("T6")->Run(*dh, rng), links);
  EXPECT_EQ(registry_.Find("Q7")->Run(*dh, rng),
            params.initial_composite_parts * per_graph);
  EXPECT_GT(registry_.Find("T4")->Run(*dh, rng), 0);  // documents contain 'I'
  const int64_t q6 = registry_.Find("Q6")->Run(*dh, rng);
  EXPECT_GE(q6, 0);
  EXPECT_LE(q6, params.complex_assembly_count());
  EXPECT_TRUE(CheckInvariants(*dh).ok());
}

TEST_F(OpsTest, GraphWalkVisitsEveryPartOnceRootFirstInDepthFirstOrder) {
  DataHolder::Setup setup;
  setup.params = Parameters::Small();
  setup.index_kind = IndexKind::kStdMap;
  setup.seed = 77;
  DataHolder dh(setup);
  int64_t graphs = 0;
  dh.composite_part_id_index().ForEach([&](const int64_t&, CompositePart* const& part) {
    const std::vector<AtomicPart*>& parts = part->parts();
    for (size_t i = 0; i < parts.size(); ++i) {
      EXPECT_EQ(parts[i]->index_in_part(), i);
    }
    std::vector<AtomicPart*> order;
    const int64_t visited =
        TraverseAtomicGraph(part->root_part(), [&](AtomicPart* atom) { order.push_back(atom); });
    EXPECT_EQ(visited, static_cast<int64_t>(parts.size()));
    EXPECT_EQ(order.front(), part->root_part());
    std::vector<int> visits(parts.size(), 0);
    for (AtomicPart* atom : order) {
      ++visits[atom->index_in_part()];
    }
    EXPECT_EQ(visits, std::vector<int>(parts.size(), 1));
    // The same stack discipline as a walk that marks visits in a set: push
    // each unseen target of the popped part in connection order.
    std::vector<AtomicPart*> want;
    std::set<AtomicPart*> seen{part->root_part()};
    std::vector<AtomicPart*> stack{part->root_part()};
    while (!stack.empty()) {
      AtomicPart* atom = stack.back();
      stack.pop_back();
      want.push_back(atom);
      for (Connection* conn : atom->outgoing()) {
        if (seen.insert(conn->to()).second) {
          stack.push_back(conn->to());
        }
      }
    }
    EXPECT_EQ(order, want);
    ++graphs;
    return true;
  });
  EXPECT_EQ(graphs, dh.params().initial_composite_parts);
}

TEST_F(OpsTest, UpdateTraversalsAreInvolutionsOnTheStructure) {
  // T2b swaps x/y on every part; T3b toggles every date (and the index);
  // T5 toggles every document; OP11 toggles the manual. Running each twice
  // must restore the exact structure checksum.
  for (const char* name : {"T2b", "T2c", "T3b", "T3c", "T5", "OP11"}) {
    auto dh = MakeWorld();
    Rng rng(2);
    const uint64_t before = StructureChecksum(*dh);
    registry_.Find(name)->Run(*dh, rng);
    // T2a/T2b change the structure (unless a swap is an identity, which the
    // random x != y makes overwhelmingly unlikely at this scale).
    registry_.Find(name)->Run(*dh, rng);
    EXPECT_EQ(StructureChecksum(*dh), before) << name;
    EXPECT_TRUE(CheckInvariants(*dh).ok()) << name;
  }
}

TEST_F(OpsTest, T2aUpdatesOnlyRootParts) {
  auto dh = MakeWorld();
  Rng rng(3);
  // Record every root part's x, run T2a, verify the swap happened on roots
  // and nowhere else (checked via double application restoring checksum).
  const uint64_t before = StructureChecksum(*dh);
  registry_.Find("T2a")->Run(*dh, rng);
  EXPECT_NE(StructureChecksum(*dh), before);
  registry_.Find("T2a")->Run(*dh, rng);
  EXPECT_EQ(StructureChecksum(*dh), before);
}

TEST_F(OpsTest, T3VariantsMaintainTheDateIndex) {
  auto dh = MakeWorld();
  Rng rng(4);
  for (const char* name : {"T3a", "T3b", "T3c"}) {
    registry_.Find(name)->Run(*dh, rng);
    const InvariantReport report = CheckInvariants(*dh);
    EXPECT_TRUE(report.ok()) << name << ": "
                             << (report.violations.empty() ? "" : report.violations[0]);
  }
}

TEST_F(OpsTest, LongTraversalsNeverFail) {
  auto dh = MakeWorld();
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    for (const auto& op : registry_.all()) {
      if (op->category() == OpCategory::kLongTraversal) {
        EXPECT_NO_THROW(op->Run(*dh, rng)) << op->name();
      }
    }
  }
}

TEST_F(OpsTest, ShortTraversalsReturnPlausibleValuesOrFail) {
  auto dh = MakeWorld();
  int failures = 0;
  int successes = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed);
    for (const char* name : {"ST1", "ST2", "ST3", "ST9"}) {
      const int64_t result = TryRun(*registry_.Find(name), *dh, rng);
      (result < 0 ? failures : successes)++;
      if (result >= 0 && std::string(name) == "ST9") {
        EXPECT_EQ(result, dh->params().atomic_parts_per_composite);
      }
    }
  }
  EXPECT_GT(successes, 0);
  // ST3 picks random ids from a pool with 50% occupancy: failures do occur.
  EXPECT_GT(failures, 0);
  EXPECT_TRUE(CheckInvariants(*dh).ok());
}

TEST_F(OpsTest, St4AndSt5NeverFail) {
  auto dh = MakeWorld();
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    EXPECT_NO_THROW(registry_.Find("ST4")->Run(*dh, rng));
    EXPECT_NO_THROW(registry_.Find("ST5")->Run(*dh, rng));
  }
}

TEST_F(OpsTest, UpdateShortTraversalsPreserveInvariants) {
  auto dh = MakeWorld();
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 31 + 1);
    for (const char* name : {"ST6", "ST7", "ST8", "ST10"}) {
      TryRun(*registry_.Find(name), *dh, rng);
    }
  }
  EXPECT_TRUE(CheckInvariants(*dh).ok());
}

TEST_F(OpsTest, Op1CountsFoundParts) {
  auto dh = MakeWorld();
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const int64_t found = registry_.Find("OP1")->Run(*dh, rng);
    EXPECT_GE(found, 0);
    EXPECT_LE(found, 10);
  }
}

TEST_F(OpsTest, Op2IsASubsetOfOp3) {
  auto dh = MakeWorld();
  Rng rng(6);
  const int64_t young = registry_.Find("OP2")->Run(*dh, rng);
  const int64_t all = registry_.Find("OP3")->Run(*dh, rng);
  EXPECT_LE(young, all);
  EXPECT_EQ(all, dh->params().initial_atomic_parts());  // full date range
  EXPECT_GT(young, 0);  // dates are uniform; [1990,1999] is ~10%
}

TEST_F(OpsTest, ManualOperations) {
  auto dh = MakeWorld();
  Rng rng(7);
  EXPECT_GT(registry_.Find("OP4")->Run(*dh, rng), 0);
  const int64_t first_last = registry_.Find("OP5")->Run(*dh, rng);
  EXPECT_TRUE(first_last == 0 || first_last == 1);
  const int64_t toggled = registry_.Find("OP11")->Run(*dh, rng);
  EXPECT_GT(toggled, 0);
  EXPECT_EQ(registry_.Find("OP4")->Run(*dh, rng), 0);  // all 'I' now 'i'
}

TEST_F(OpsTest, SiblingAndComponentOperations) {
  auto dh = MakeWorld();
  int successes = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 17 + 3);
    for (const char* name : {"OP6", "OP7", "OP8", "OP12", "OP13", "OP14"}) {
      const int64_t result = TryRun(*registry_.Find(name), *dh, rng);
      if (result >= 0) {
        ++successes;
        EXPECT_LE(result, 16);  // bounded by fanout / components per assembly
      }
    }
  }
  EXPECT_GT(successes, 0);
  EXPECT_TRUE(CheckInvariants(*dh).ok());
}

TEST_F(OpsTest, Op9Op10Op15PreserveInvariants) {
  auto dh = MakeWorld();
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed + 100);
    TryRun(*registry_.Find("OP9"), *dh, rng);
    TryRun(*registry_.Find("OP10"), *dh, rng);
    TryRun(*registry_.Find("OP15"), *dh, rng);  // indexed date update
  }
  const InvariantReport report = CheckInvariants(*dh);
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations[0]);
}

TEST_F(OpsTest, StructureModificationsKeepTheWorldConsistent) {
  auto dh = MakeWorld();
  const char* sm_names[] = {"SM1", "SM2", "SM3", "SM4", "SM5", "SM6", "SM7", "SM8"};
  int per_op_success[8] = {};
  for (uint64_t seed = 0; seed < 120; ++seed) {
    Rng rng(seed * 7 + 11);
    for (int i = 0; i < 8; ++i) {
      if (TryRun(*registry_.Find(sm_names[i]), *dh, rng) >= 0) {
        per_op_success[i]++;
      }
    }
  }
  const InvariantReport report = CheckInvariants(*dh);
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations[0]);
  for (int i = 0; i < 8; ++i) {
    EXPECT_GT(per_op_success[i], 0) << sm_names[i] << " never succeeded";
  }
  EbrDomain::Global().DrainAll();
}

TEST_F(OpsTest, Sm1FailsWhenThePoolIsExhausted) {
  auto dh = MakeWorld();
  Rng rng(13);
  const Operation* sm1 = registry_.Find("SM1");
  int created = 0;
  while (TryRun(*sm1, *dh, rng) >= 0) {
    ++created;
    ASSERT_LE(created, dh->composite_part_ids().capacity());
  }
  // Pool fully used: tiny starts with 8 parts, capacity 16.
  EXPECT_EQ(created, dh->composite_part_ids().capacity() -
                         dh->params().initial_composite_parts);
  EXPECT_THROW(sm1->Run(*dh, rng), OperationFailed);
  EXPECT_TRUE(CheckInvariants(*dh).ok());
}

TEST_F(OpsTest, Sm6NeverRemovesTheLastChild) {
  auto dh = MakeWorld();
  const Operation* sm6 = registry_.Find("SM6");
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    TryRun(*sm6, *dh, rng);
  }
  // Every complex assembly must still have at least one child.
  const InvariantReport report = CheckInvariants(*dh);
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations[0]);
  EbrDomain::Global().DrainAll();
}

TEST_F(OpsTest, Sm2ThenSm1RecyclesIds) {
  auto dh = MakeWorld();
  Rng rng(15);
  const int64_t before_available = dh->composite_part_ids().Available();
  // Delete one part (retry until the random id hits).
  while (TryRun(*registry_.Find("SM2"), *dh, rng) < 0) {
  }
  EXPECT_EQ(dh->composite_part_ids().Available(), before_available + 1);
  ASSERT_TRUE(CanCreateCompositePart(*dh));
  while (TryRun(*registry_.Find("SM1"), *dh, rng) < 0) {
  }
  EXPECT_EQ(dh->composite_part_ids().Available(), before_available);
  EXPECT_TRUE(CheckInvariants(*dh).ok());
  EbrDomain::Global().DrainAll();
}

}  // namespace
}  // namespace sb7
