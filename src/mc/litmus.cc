#include "src/mc/litmus.h"

#ifdef SB7_MC

#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "src/check/history.h"
#include "src/common/rng.h"
#include "src/ebr/ebr.h"
#include "src/mc/scheduler.h"
#include "src/mc/sync_point.h"
#include "src/mvstm/group_commit.h"
#include "src/mvstm/mvstm.h"
#include "src/mvstm/redo_log.h"
#include "src/stm/field.h"
#include "src/stm/stm.h"
#include "src/stm/stm_factory.h"

namespace sb7::mc {
namespace {

// A modeled plain (non-atomic) cell: every access announces itself with a
// kRacy* sync point, which is what the scheduler's race detector keys on.
// Model litmus use it to stand in for the plain fields historical bugs
// read across threads.
struct RacyCell {
  uint64_t value = 0;
  uint64_t Load() {
    sp::SyncPoint(this, sp::OpKind::kRacyLoad);
    return value;
  }
  void Store(uint64_t v) {
    sp::SyncPoint(this, sp::OpKind::kRacyStore);
    value = v;
  }
};

// --- model litmus: the pinned historical races -----------------------------

// The cross-thread Priority() race as shipped: the victim transaction kept
// bumping a plain open-count while contention managers on other threads
// read it during arbitration. (Fixed by making priority_ an atomic mirror;
// see AstmTx in src/stm/astm.h.)
Litmus MakeAstmPriorityRace() {
  auto priority = std::make_shared<RacyCell>();
  TagAddress(priority.get(), "astm_priority");
  Litmus litmus;
  litmus.name = "astm-priority-race";
  litmus.summary = "plain cross-thread Priority() read vs owner writes (historical bug)";
  litmus.expect_violation = true;
  litmus.setup = [priority] { priority->value = 0; };
  litmus.bodies = {
      // Victim: opens objects, bumping its investment.
      [priority] {
        priority->Store(1);
        priority->Store(2);
      },
      // A rival's contention manager sizing up the enemy.
      [priority] { (void)priority->Load(); },
  };
  litmus.check = [] { return std::string(); };
  return litmus;
}

// The fix: the mirror is atomic; arbitrary staleness is fine, tearing and
// UB are not.
Litmus MakeAstmPriorityFixed() {
  auto priority = std::make_shared<sp::AtomicU64>();
  TagAddress(priority.get(), "astm_priority");
  Litmus litmus;
  litmus.name = "astm-priority-fixed";
  litmus.summary = "atomic Priority() mirror: same protocol, no race";
  litmus.expect_violation = false;
  // mo: relaxed — mirrors the production code: a heuristic input.
  litmus.setup = [priority] { priority->store(0, std::memory_order_relaxed); };
  litmus.bodies = {
      [priority] {
        priority->store(1, std::memory_order_relaxed);
        priority->store(2, std::memory_order_relaxed);
      },
      [priority] { (void)priority->load(std::memory_order_relaxed); },
  };
  litmus.check = [] { return std::string(); };
  return litmus;
}

// The tracer TLS use-after-free as shipped: the thread-local slot was keyed
// by the tracer's *address*. Destroying a tracer freed its heap state;
// constructing the next tracer at the recycled address made stale slots
// "match", and the worker dereferenced the freed state. (Fixed by keying
// slots on a process-unique instance id; see src/trace/tracer.cc.)
struct TracerUafCells {
  sp::AtomicU64 slot_owner{0};  // worker's cached owner tag
  sp::AtomicU64 slot_state{0};  // worker's cached state index (1 = state1)
  sp::AtomicU64 state1{0};      // tracer #1's heap state
  sp::AtomicU64 state2{0};      // tracer #2's heap state
};

Litmus MakeTracerTlsUaf() {
  auto cells = std::make_shared<TracerUafCells>();
  TagAddress(&cells->slot_owner, "slot_owner");
  TagAddress(&cells->slot_state, "slot_state");
  TagAddress(&cells->state1, "state1");
  TagAddress(&cells->state2, "state2");
  Litmus litmus;
  litmus.name = "tracer-tls-uaf";
  litmus.summary = "address-keyed TLS slot survives tracer reuse (historical bug)";
  litmus.expect_violation = true;
  litmus.setup = [cells] {
    // mo: relaxed — single-threaded reset from the control thread.
    cells->slot_owner.store(1, std::memory_order_relaxed);  // tracer #1's address
    cells->slot_state.store(1, std::memory_order_relaxed);  // -> state1
    cells->state1.store(7, std::memory_order_relaxed);
    cells->state2.store(0, std::memory_order_relaxed);
  };
  litmus.bodies = {
      // Worker inside a callback: trusts the slot because the owner tag
      // equals the *current* tracer's address — which is tracer #2's too.
      [cells] {
        const uint64_t owner = cells->slot_owner.load(std::memory_order_relaxed);
        if (owner == 1) {
          if (cells->slot_state.load(std::memory_order_relaxed) == 1) {
            (void)cells->state1.load(std::memory_order_relaxed);
          }
        }
      },
      // Lifecycle: tracer #1 destroyed (state freed), tracer #2 constructed
      // at the recycled address — nothing rewrites the worker's slot.
      [cells] {
        ModelFree(&cells->state1);
        cells->state2.store(9, std::memory_order_relaxed);  // tracer #2 init
      },
  };
  litmus.check = [] { return std::string(); };
  return litmus;
}

// The fix: slots are keyed by a never-reused instance id. Tracer #2's id
// (2) can never match a slot tagged by tracer #1 (1), so the worker
// re-registers against fresh state instead of trusting the stale pointer.
Litmus MakeTracerTlsFixed() {
  auto cells = std::make_shared<TracerUafCells>();
  TagAddress(&cells->slot_owner, "slot_owner");
  TagAddress(&cells->slot_state, "slot_state");
  TagAddress(&cells->state1, "state1");
  TagAddress(&cells->state2, "state2");
  Litmus litmus;
  litmus.name = "tracer-tls-fixed";
  litmus.summary = "instance-id-keyed TLS slot: stale entries never match";
  litmus.expect_violation = false;
  litmus.setup = [cells] {
    // mo: relaxed — single-threaded reset from the control thread.
    cells->slot_owner.store(1, std::memory_order_relaxed);  // tracer #1's id
    cells->slot_state.store(1, std::memory_order_relaxed);
    cells->state1.store(7, std::memory_order_relaxed);
    cells->state2.store(0, std::memory_order_relaxed);
  };
  litmus.bodies = {
      [cells] {
        // Current tracer's id is 2; the stale slot says 1 — mismatch, so
        // the worker re-registers with the current tracer's state.
        const uint64_t owner = cells->slot_owner.load(std::memory_order_relaxed);
        if (owner == 2) {
          (void)cells->state1.load(std::memory_order_relaxed);
        } else {
          cells->slot_state.store(2, std::memory_order_relaxed);
          (void)cells->state2.load(std::memory_order_relaxed);
        }
      },
      [cells] {
        ModelFree(&cells->state1);
        cells->state2.store(9, std::memory_order_relaxed);
      },
  };
  litmus.check = [] { return std::string(); };
  return litmus;
}

// Two threads, two variables: the classic 2x2 store program whose six
// interleavings collapse under sleep sets. Kept in the registry for CLI
// experiments with --no-reduction; the reduction-soundness test builds its
// own instrumented copy.
Litmus MakeDpor2x2() {
  struct Cells {
    sp::AtomicU64 x{0}, y{0};
  };
  auto cells = std::make_shared<Cells>();
  TagAddress(&cells->x, "x");
  TagAddress(&cells->y, "y");
  Litmus litmus;
  litmus.name = "dpor-2x2";
  litmus.summary = "two threads x two stores: sleep-set reduction demo";
  litmus.expect_violation = false;
  litmus.setup = [cells] {
    // mo: relaxed — single-threaded reset from the control thread.
    cells->x.store(0, std::memory_order_relaxed);
    cells->y.store(0, std::memory_order_relaxed);
  };
  litmus.bodies = {
      [cells] {
        cells->x.store(1, std::memory_order_relaxed);
        cells->y.store(1, std::memory_order_relaxed);
      },
      [cells] {
        cells->x.store(2, std::memory_order_relaxed);
        cells->y.store(2, std::memory_order_relaxed);
      },
  };
  litmus.check = [] { return std::string(); };
  return litmus;
}

// --- STM litmus: real backends under the explorer --------------------------

class McCell : public TmObject {
 public:
  explicit McCell(int64_t initial = 0) : value(unit(), initial) {}
  TxField<int64_t> value;
};

struct StmCells {
  explicit StmCells(std::string_view backend) : stm(MakeStm(backend)) {}
  std::unique_ptr<Stm> stm;
  McCell x, y;
  std::unique_ptr<HistoryRecorder> recorder;
  int64_t r1 = 0, r2 = 0;
};

// Opacity gate shared by every STM litmus: each explored schedule's history
// must be opaque, independent of the litmus's own end-state condition.
std::string OpacityFailure(StmCells& cells) {
  cells.recorder->Uninstall();
  const History history = cells.recorder->TakeHistory();
  const OpacityResult result = CheckOpacity(history);
  cells.recorder.reset();
  if (!result.ok()) {
    return "opacity: " + result.diagnosis;
  }
  return std::string();
}

// Resets the cells through the STM: a direct store would bypass mvstm's
// version chains, and a snapshot straddling the next commit could walk a
// chain back to the previous execution's value. The transaction brings the
// control thread online in EBR; it must not hold the epoch back while the
// execution's threads retire version nodes.
void ResetCells(Stm& stm, McCell& x, McCell& y) {
  stm.RunAtomically([&](Transaction&) {
    x.value.Set(0);
    y.value.Set(0);
  });
  EbrDomain::Global().Offline();
}

// A setup installs the execution's recorder before its reset transactions
// commit, so the history holds the resets: CheckOpacity grounds each cell on
// the value a reset wrote, and a stale starting value fails the gate.
// Installed after the resets, the recorder would let the checker ground a
// cell on its first read, whatever it returned.
void StmSetup(const std::shared_ptr<StmCells>& cells) {
  cells->recorder = std::make_unique<HistoryRecorder>();
  cells->recorder->Install();
  ResetCells(*cells->stm, cells->x, cells->y);
  cells->r1 = cells->r2 = 0;
}

Litmus MakeStmLostUpdate(std::string_view backend) {
  auto cells = std::make_shared<StmCells>(backend);
  Litmus litmus;
  litmus.name = "stm-lost-update-" + std::string(backend);
  litmus.summary = "two concurrent x+=1 transactions must both land";
  litmus.expect_violation = false;
  litmus.setup = [cells] { StmSetup(cells); };
  const auto increment = [cells] {
    cells->stm->RunAtomically(
        [&](Transaction&) { cells->x.value.Set(cells->x.value.Get() + 1); });
  };
  litmus.bodies = {increment, increment};
  litmus.check = [cells]() -> std::string {
    if (std::string failure = OpacityFailure(*cells); !failure.empty()) {
      return failure;
    }
    const int64_t x = cells->x.value.Get();
    if (x != 2) {
      std::ostringstream out;
      out << "lost update: x == " << x << ", want 2";
      return out.str();
    }
    return std::string();
  };
  return litmus;
}

// `reversed` reads y before x. Against a writer that lands x first, that
// reader can open y before the commit and x once x's image has landed.
Litmus MakeStmSnapshot(std::string_view backend, bool reversed) {
  auto cells = std::make_shared<StmCells>(backend);
  Litmus litmus;
  litmus.name = (reversed ? "stm-snapshot-reversed-" : "stm-snapshot-") + std::string(backend);
  litmus.summary = reversed ? "reader of y, then x, never observes a half-applied x=y=1 pair"
                            : "reader never observes a half-applied x=y=1 write pair";
  litmus.expect_violation = false;
  litmus.setup = [cells] { StmSetup(cells); };
  litmus.bodies = {
      [cells] {
        cells->stm->RunAtomically([&](Transaction&) {
          cells->x.value.Set(1);
          cells->y.value.Set(1);
        });
      },
      // Read-only hint: exercises mvstm's abort-free snapshot path.
      [cells, reversed] {
        cells->stm->RunAtomically(
            [&](Transaction&) {
              if (reversed) {
                cells->r2 = cells->y.value.Get();
              }
              cells->r1 = cells->x.value.Get();
              if (!reversed) {
                cells->r2 = cells->y.value.Get();
              }
            },
            /*read_only=*/true);
      },
  };
  litmus.check = [cells]() -> std::string {
    if (std::string failure = OpacityFailure(*cells); !failure.empty()) {
      return failure;
    }
    if (cells->r1 != cells->r2) {
      std::ostringstream out;
      out << "torn snapshot: read x == " << cells->r1 << ", y == " << cells->r2;
      return out.str();
    }
    return std::string();
  };
  return litmus;
}

Litmus MakeStmIncrementPair(std::string_view backend) {
  auto cells = std::make_shared<StmCells>(backend);
  Litmus litmus;
  litmus.name = "stm-increment-pair-" + std::string(backend);
  litmus.summary = "two-location increments stay atomic under write-write conflicts";
  litmus.expect_violation = false;
  litmus.setup = [cells] { StmSetup(cells); };
  const auto bump_both = [cells] {
    cells->stm->RunAtomically([&](Transaction&) {
      cells->x.value.Set(cells->x.value.Get() + 1);
      cells->y.value.Set(cells->y.value.Get() + 1);
    });
  };
  litmus.bodies = {bump_both, bump_both};
  litmus.check = [cells]() -> std::string {
    if (std::string failure = OpacityFailure(*cells); !failure.empty()) {
      return failure;
    }
    const int64_t x = cells->x.value.Get();
    const int64_t y = cells->y.value.Get();
    if (x != 2 || y != 2) {
      std::ostringstream out;
      out << "uneven increments: x == " << x << ", y == " << y << ", want 2/2";
      return out.str();
    }
    return std::string();
  };
  return litmus;
}

// Write skew: each transaction reads both cells and, seeing them both 0,
// sets its own. A serializable run lets at most one of them write; an STM
// that validates reads by version alone (astm before its commit-time owner
// check) lets both commit when each owns the cell the other read.
Litmus MakeStmWriteSkew(std::string_view backend) {
  auto cells = std::make_shared<StmCells>(backend);
  Litmus litmus;
  litmus.name = "stm-write-skew-" + std::string(backend);
  litmus.summary = "read {x, y}, set your own cell when both are 0: x + y <= 1";
  litmus.expect_violation = false;
  litmus.setup = [cells] { StmSetup(cells); };
  const auto claim = [cells](McCell* own) {
    return [cells, own] {
      cells->stm->RunAtomically([&](Transaction&) {
        if (cells->x.value.Get() + cells->y.value.Get() == 0) {
          own->value.Set(1);
        }
      });
    };
  };
  litmus.bodies = {claim(&cells->x), claim(&cells->y)};
  litmus.check = [cells]() -> std::string {
    if (std::string failure = OpacityFailure(*cells); !failure.empty()) {
      return failure;
    }
    const int64_t x = cells->x.value.Get();
    const int64_t y = cells->y.value.Get();
    if (x + y > 1) {
      std::ostringstream out;
      out << "write skew: x == " << x << ", y == " << y << ", want x + y <= 1";
      return out.str();
    }
    return std::string();
  };
  return litmus;
}

// Aborted write: the writer stores x = 1 in place (tinystm writes through)
// and aborts once; its retry writes nothing, so no committed state ever
// holds 1. A reader whose pre/post lock loads bracket the store and its
// undo must not accept the 1 — which it did while tinystm released an
// aborted attempt's locks at their pre-lock words.
Litmus MakeStmAbortedWrite(std::string_view backend) {
  auto cells = std::make_shared<StmCells>(backend);
  auto writer_attempts = std::make_shared<int>(0);
  Litmus litmus;
  litmus.name = "stm-aborted-write-" + std::string(backend);
  litmus.summary = "a write whose attempt aborted is never read: x = 1 then abort";
  litmus.expect_violation = false;
  litmus.setup = [cells, writer_attempts] {
    StmSetup(cells);
    *writer_attempts = 0;
  };
  litmus.bodies = {
      [cells, writer_attempts] {
        cells->stm->RunAtomically([&](Transaction&) {
          if ((*writer_attempts)++ == 0) {
            cells->x.value.Set(1);
            throw TxAborted{};
          }
        });
      },
      [cells] {
        cells->stm->RunAtomically([&](Transaction&) { cells->r1 = cells->x.value.Get(); });
      },
  };
  litmus.check = [cells]() -> std::string {
    if (std::string failure = OpacityFailure(*cells); !failure.empty()) {
      return failure;
    }
    if (cells->r1 == 1) {
      return "read x == 1, a value only an aborted attempt wrote";
    }
    return std::string();
  };
  return litmus;
}

// Captured-memory publication: the writer builds a pair inside its attempt,
// sets both fields (served without the STM: the attempt built the pair) and
// links it through a transactional write. A reader that sees the link must
// see both fields set.
struct McPair : TmObject {
  McPair() : a(unit(), 0), b(unit(), 0) {}
  TxField<int64_t> a, b;
};

struct CapturePublishCells : StmCells {
  using StmCells::StmCells;
  TmObject holder;
  TxField<McPair*> link{holder.unit(), nullptr};
};

Litmus MakeStmCapturePublish(std::string_view backend) {
  auto cells = std::make_shared<CapturePublishCells>(backend);
  Litmus litmus;
  litmus.name = "stm-capture-publish-" + std::string(backend);
  litmus.summary = "a pair built and set inside an attempt is seen whole through its link";
  litmus.expect_violation = false;
  litmus.setup = [cells] {
    StmSetup(cells);
    // Unlinked through the STM, like the cells (ResetCells), and recorded
    // like them: a direct store would leave mvstm's version chain naming the
    // previous execution's pair after it is freed. No execution is running,
    // so the pair can then be freed outright.
    McPair* previous = nullptr;
    cells->stm->RunAtomically([&](Transaction&) {
      previous = cells->link.Get();
      cells->link.Set(nullptr);
    });
    delete previous;
  };
  litmus.bodies = {
      [cells] {
        cells->stm->RunAtomically([&](Transaction& tx) {
          auto* pair = new McPair();
          tx.OnAbort([pair] { delete pair; });
          pair->a.Set(1);
          pair->b.Set(2);
          cells->link.Set(pair);
        });
      },
      // Read-only hint: under mvstm the pair is read from a snapshot.
      [cells] {
        cells->stm->RunAtomically(
            [&](Transaction&) {
              cells->r1 = cells->r2 = -1;
              if (McPair* pair = cells->link.Get()) {
                cells->r1 = pair->a.Get();
                cells->r2 = pair->b.Get();
              }
            },
            /*read_only=*/true);
      },
  };
  litmus.check = [cells]() -> std::string {
    if (std::string failure = OpacityFailure(*cells); !failure.empty()) {
      return failure;
    }
    if (cells->r1 != -1 && (cells->r1 != 1 || cells->r2 != 2)) {
      std::ostringstream out;
      out << "saw the link but not the fields: a == " << cells->r1 << ", b == " << cells->r2;
      return out.str();
    }
    return std::string();
  };
  return litmus;
}

// --- group-commit litmus: the durability protocol under the explorer -------

// mvstm with the group-commit sequencer attached, logging to an in-memory
// redo log. The writer and sequencer live for the litmus's whole life
// (AttachSequencer forbids detaching), so per-schedule checks work on the
// *delta* of the writer's counters; the shared log stays scannable across
// schedules because group_seq keeps incrementing contiguously.
struct GroupCommitCells {
  GroupCommitCells()
      : writer("", redo::Durability::kGroup), sequencer(&writer) {
    writer.WriteFileHeader(/*seed=*/1, "tiny", "mvstm");
    stm.AttachSequencer(&sequencer);
  }
  redo::RedoLogWriter writer;
  GroupCommitSequencer sequencer;
  MvStm stm;
  McCell x, y;
  std::unique_ptr<HistoryRecorder> recorder;
  int64_t r1 = 0, r2 = 0;
  uint64_t members_before = 0;
  uint64_t groups_before = 0;
  // Per committer: the writer's synced prefix when its commit returned.
  uint64_t synced_at_return[2] = {0, 0};
};

// The recorder goes in before the reset, as in StmSetup. The reset commits
// through the sequencer, so it logs a group of its own before
// members_before is read.
void GroupCommitSetup(const std::shared_ptr<GroupCommitCells>& cells) {
  cells->recorder = std::make_unique<HistoryRecorder>();
  cells->recorder->Install();
  ResetCells(cells->stm, cells->x, cells->y);
  cells->r1 = cells->r2 = 0;
  cells->members_before = cells->writer.stats().members;
  cells->groups_before = cells->writer.stats().groups;
}

// Opacity gate plus the write-ahead gate: every byte the sequencer appended
// must frame-check, and every commit that published must have reached the
// log first — under any interleaving the explorer finds.
std::string GroupCommitFailure(GroupCommitCells& cells, uint64_t want_members,
                               std::vector<redo::GroupRecord>* scanned = nullptr) {
  cells.recorder->Uninstall();
  const History history = cells.recorder->TakeHistory();
  const OpacityResult result = CheckOpacity(history);
  cells.recorder.reset();
  if (!result.ok()) {
    return "opacity: " + result.diagnosis;
  }
  if (!cells.writer.ok()) {
    return "redo writer failed: " + cells.writer.error();
  }
  const uint64_t members = cells.writer.stats().members - cells.members_before;
  if (members != want_members) {
    std::ostringstream out;
    out << "log members: got " << members << ", want " << want_members;
    return out.str();
  }
  std::vector<redo::GroupRecord> groups;
  redo::RecoverySummary summary;
  redo::ScanLog(cells.writer.memory_buffer(), &groups, &summary);
  if (!summary.header_ok || summary.corrupt || summary.torn_tail) {
    return "log scan: " + summary.detail;
  }
  if (summary.members != cells.writer.stats().members) {
    std::ostringstream out;
    out << "scan sees " << summary.members << " members, writer appended "
        << cells.writer.stats().members;
    return out.str();
  }
  if (scanned != nullptr) {
    *scanned = std::move(groups);
  }
  return std::string();
}

Litmus MakeGroupCommitPair() {
  auto cells = std::make_shared<GroupCommitCells>();
  Litmus litmus;
  litmus.name = "mvstm-group-commit";
  litmus.summary = "two increments through the group-commit sequencer both land and log";
  litmus.expect_violation = false;
  litmus.setup = [cells] { GroupCommitSetup(cells); };
  const auto increment = [cells] {
    cells->stm.RunAtomically(
        [&](Transaction&) { cells->x.value.Set(cells->x.value.Get() + 1); });
  };
  litmus.bodies = {increment, increment};
  litmus.check = [cells]() -> std::string {
    if (std::string failure = GroupCommitFailure(*cells, /*want_members=*/2);
        !failure.empty()) {
      return failure;
    }
    const int64_t x = cells->x.value.Get();
    if (x != 2) {
      std::ostringstream out;
      out << "lost update through group commit: x == " << x << ", want 2";
      return out.str();
    }
    return std::string();
  };
  return litmus;
}

Litmus MakeGroupCommitSnapshot() {
  auto cells = std::make_shared<GroupCommitCells>();
  Litmus litmus;
  litmus.name = "mvstm-group-commit-snapshot";
  litmus.summary = "snapshot reader never sees a half-published group member";
  litmus.expect_violation = false;
  litmus.setup = [cells] { GroupCommitSetup(cells); };
  litmus.bodies = {
      // Committer: a two-location write pair driven through the sequencer —
      // publish happens only after the group record's append.
      [cells] {
        cells->stm.RunAtomically([&](Transaction&) {
          cells->x.value.Set(1);
          cells->y.value.Set(1);
        });
      },
      // Snapshot reader racing the group's publish phase.
      [cells] {
        cells->stm.RunAtomically(
            [&](Transaction&) {
              cells->r1 = cells->x.value.Get();
              cells->r2 = cells->y.value.Get();
            },
            /*read_only=*/true);
      },
  };
  litmus.check = [cells]() -> std::string {
    if (std::string failure = GroupCommitFailure(*cells, /*want_members=*/1);
        !failure.empty()) {
      return failure;
    }
    if (cells->r1 != cells->r2) {
      std::ostringstream out;
      out << "torn snapshot through group commit: read x == " << cells->r1
          << ", y == " << cells->r2;
      return out.str();
    }
    return std::string();
  };
  return litmus;
}

// Two committers on disjoint cells, so neither evicts the other and both
// groups can be in flight at once. The in-memory writer's sync is two
// steps, so the explorer can end the later group's sync first. A committer
// tags its member record (client_tag 1 or 2, as a served request's id
// would) to find its group in the log; acknowledgement is in log order
// when each committer returned only after its own group and every earlier
// one were synced.
Litmus MakeGroupCommitPipelined() {
  auto cells = std::make_shared<GroupCommitCells>();
  Litmus litmus;
  litmus.name = "mvstm-group-commit-pipelined";
  litmus.summary = "a later group's sync may end first, but no commit returns before its prefix";
  litmus.expect_violation = false;
  litmus.setup = [cells] { GroupCommitSetup(cells); };
  const auto committer = [cells](int index) {
    return [cells, index] {
      SetTxOpContext(-1, static_cast<uint64_t>(index) + 1);
      redo::CaptureAttemptContext(Rng());
      McCell& cell = index == 0 ? cells->x : cells->y;
      cells->stm.RunAtomically([&](Transaction&) { cell.value.Set(1); });
      cells->synced_at_return[index] = cells->writer.synced_prefix();
      SetTxOpContext(-1, 0);
    };
  };
  litmus.bodies = {committer(0), committer(1)};
  litmus.check = [cells]() -> std::string {
    std::vector<redo::GroupRecord> groups;
    if (std::string failure = GroupCommitFailure(*cells, /*want_members=*/2, &groups);
        !failure.empty()) {
      return failure;
    }
    if (cells->x.value.Get() != 1 || cells->y.value.Get() != 1) {
      return "a commit through a pipelined group was lost";
    }
    for (const redo::GroupRecord& group : groups) {
      if (group.group_seq < cells->groups_before) {
        continue;
      }
      for (const redo::MemberRecord& member : group.members) {
        if (member.client_tag != 1 && member.client_tag != 2) {
          continue;
        }
        const uint64_t synced = cells->synced_at_return[member.client_tag - 1];
        if (synced <= group.group_seq) {
          std::ostringstream out;
          out << "committer " << member.client_tag << " returned with groups below "
              << synced << " synced, but its group is " << group.group_seq;
          return out.str();
        }
      }
    }
    return std::string();
  };
  return litmus;
}

std::vector<Litmus> BuildAll() {
  std::vector<Litmus> all;
  all.push_back(MakeAstmPriorityRace());
  all.push_back(MakeAstmPriorityFixed());
  all.push_back(MakeTracerTlsUaf());
  all.push_back(MakeTracerTlsFixed());
  all.push_back(MakeDpor2x2());
  for (const char* backend : {"tl2", "tinystm", "norec", "astm", "mvstm"}) {
    all.push_back(MakeStmLostUpdate(backend));
    all.push_back(MakeStmSnapshot(backend, /*reversed=*/false));
    all.push_back(MakeStmSnapshot(backend, /*reversed=*/true));
    all.push_back(MakeStmIncrementPair(backend));
    all.push_back(MakeStmWriteSkew(backend));
    all.push_back(MakeStmAbortedWrite(backend));
    all.push_back(MakeStmCapturePublish(backend));
  }
  all.push_back(MakeGroupCommitPair());
  all.push_back(MakeGroupCommitSnapshot());
  all.push_back(MakeGroupCommitPipelined());
  return all;
}

}  // namespace

const std::vector<Litmus>& AllLitmuses() {
  static const auto* all = new std::vector<Litmus>(BuildAll());
  return *all;
}

const Litmus* FindLitmus(std::string_view name) {
  for (const Litmus& litmus : AllLitmuses()) {
    if (litmus.name == name) {
      return &litmus;
    }
  }
  return nullptr;
}

}  // namespace sb7::mc

#endif  // SB7_MC
