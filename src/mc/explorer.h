/// \file
/// Bounded stateless exploration of thread interleavings.
///
/// The explorer enumerates schedules of a litmus program (src/mc/litmus.h)
/// by depth-first search over the tree of scheduling choices, re-executing
/// the program from scratch along each branch (stateless model checking: no
/// state capture, only deterministic replay of schedule prefixes).
///
/// Reduction is sleep-set based (Godefroid): after a branch `t` at a state
/// is fully explored, `t` enters the sleep set of its later siblings, and a
/// sleep set propagates along an execution, dropping members whose pending
/// operation is dependent on the chosen step. A state whose every enabled
/// thread sleeps is redundant — its executions only commute already-explored
/// ones — so the run is drained without recording new branch points.
///
/// Bounds, all optional: max schedules, max recorded steps per schedule
/// (past it the run free-runs fairly to completion and counts as
/// truncated), and a context-switch bound (branch points that would preempt
/// a still-enabled thread past the bound are not recorded). Every completed
/// execution is checked: model-level violations from the scheduler (races,
/// use-after-free), plus the litmus's own end-state predicate.

#ifndef STMBENCH7_SRC_MC_EXPLORER_H_
#define STMBENCH7_SRC_MC_EXPLORER_H_

#ifdef SB7_MC

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/mc/litmus.h"
#include "src/mc/scheduler.h"

namespace sb7::mc {

struct ExploreOptions {
  uint64_t max_schedules = 10000;  // stop after this many executions
  uint64_t max_steps = 2000;       // recorded steps per execution
  int switch_bound = -1;           // max preemptions; -1 = unbounded
  bool sleep_sets = true;          // disable for reduction-soundness tests
};

/// A fully-recorded schedule: the replay seed format's in-memory form.
struct ScheduleTrace {
  std::string litmus;
  std::vector<ScheduleStep> steps;
  bool truncated = false;       // hit max_steps; drained by free-run
  Violation violation;          // model-level (race / UAF)
  std::string check_failure;    // litmus end-state predicate failure, if any
  bool failed() const { return violation || !check_failure.empty(); }
};

struct ExploreResult {
  uint64_t schedules = 0;        // executions completed
  uint64_t truncated = 0;        // executions that hit the step bound
  uint64_t sleep_blocked = 0;    // runs drained at a fully-sleeping state
  uint64_t failures = 0;         // executions that failed a check
  bool budget_exhausted = false; // stopped by max_schedules
  /// First failing schedule, kept for replay emission.
  std::optional<ScheduleTrace> first_failure;
  /// Granted tids of every explored schedule, in exploration order;
  /// deterministic for a given (litmus, options) — the determinism tests
  /// compare two of these wholesale.
  std::vector<std::vector<int>> schedule_tids;
};

/// Called once per exploration, as soon as the first failing schedule has
/// run; `schedule` is its 1-based position in exploration order. Lets a
/// caller report a failure before the rest of the budget is explored (and
/// keep it if the run is then cut off).
using FirstFailureFn = std::function<void(const ScheduleTrace& failure, uint64_t schedule)>;

/// Explores `litmus` under `options`.
ExploreResult Explore(const Litmus& litmus, const ExploreOptions& options,
                      const FirstFailureFn& on_first_failure = nullptr);

/// One step of a trace as read back from a trace file: addresses do not
/// survive a process boundary, so the operand is carried as its symbolic
/// tag (scheduler.h TagAddress) — raw-pointer tags are not re-checkable.
struct ReplayStep {
  int tid = -1;
  sp::OpKind kind = sp::OpKind::kYield;
  std::string addr_tag;
};

/// Replays `steps` against `litmus`: grants tids in order, verifying that
/// each granted thread's pending operation matches the recorded one (kind
/// always; address only when the recorded tag is symbolic). Returns the
/// re-executed trace; `divergence` (if non-null) receives a description of
/// the first mismatch, or stays empty when the replay is faithful. A
/// divergent replay is drained fairly, never abandoned.
ScheduleTrace Replay(const Litmus& litmus, const std::vector<ReplayStep>& steps,
                     std::string* divergence);

}  // namespace sb7::mc

#endif  // SB7_MC
#endif  // STMBENCH7_SRC_MC_EXPLORER_H_
