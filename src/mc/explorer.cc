#include "src/mc/explorer.h"

#ifdef SB7_MC

#include <algorithm>
#include <memory>
#include <sstream>

#include "src/common/diag.h"

namespace sb7::mc {
namespace {

// A deferred scheduling alternative: re-run the program, follow `prefix`,
// then grant `alt` with `sleep` in effect at that state. The sleep set
// already contains the siblings explored before this one (LIFO order makes
// their subtrees complete first), so the sleep-set invariant — "everything
// in the set has been explored from an equivalent state" — holds at pop.
struct BranchPoint {
  std::vector<int> prefix;
  int alt = -1;
  std::vector<int> sleep;
};

bool InSet(const std::vector<int>& set, int tid) {
  return std::find(set.begin(), set.end(), tid) != set.end();
}

// Executes one schedule. `choices` is followed verbatim; `branch_sleep` is
// the sleep set in effect when the *last* element of `choices` is granted
// (empty for the root run). Past the prefix the default policy picks the
// previous thread when possible (fewest context switches), else the lowest
// enabled non-sleeping tid, recording branch points for the skipped
// siblings. Returns the completed trace; appends new branch points.
ScheduleTrace RunOne(const Litmus& litmus, const ExploreOptions& options,
                     const std::vector<int>& choices, const std::vector<int>& branch_sleep,
                     std::vector<BranchPoint>* stack, uint64_t* sleep_blocked) {
  ScheduleTrace trace;
  trace.litmus = litmus.name;
  McScheduler scheduler(litmus.bodies);
  if (litmus.setup) {
    litmus.setup();
  }
  scheduler.Start();

  std::vector<int> sleep;
  int switches = 0;
  int last_tid = -1;
  size_t pos = 0;
  bool recording = true;
  while (!scheduler.AllDone()) {
    if (trace.steps.size() >= options.max_steps) {
      trace.truncated = true;
      scheduler.FreeRun(options.free_run_hard_cap);
      break;
    }
    scheduler.CheckRaceAtState();
    const std::vector<int> enabled = scheduler.EnabledThreads();
    SB7_CHECK(!enabled.empty());

    int chosen = -1;
    bool forced = false;
    if (pos < choices.size()) {
      chosen = choices[pos];
      forced = true;
      if (pos + 1 == choices.size()) {
        // The branch step: the deferred alternative runs under the sleep
        // set captured when its siblings were expanded.
        sleep = branch_sleep;
      }
      if (!InSet(enabled, chosen)) {
        // The prefix no longer matches the program (can only happen for a
        // replayed cross-process trace; in-process prefixes are exact).
        trace.check_failure = "schedule prefix diverged: thread not enabled";
        scheduler.FreeRun(options.free_run_hard_cap);
        break;
      }
      ++pos;
    } else {
      // Default policy among non-sleeping enabled threads.
      int best = -1;
      for (int tid : enabled) {
        if (InSet(sleep, tid)) {
          continue;
        }
        if (tid == last_tid) {
          best = tid;
          break;
        }
        if (best < 0) {
          best = tid;
        }
      }
      if (best < 0) {
        // Every enabled thread sleeps: all continuations commute into
        // already-explored schedules. Drain without recording.
        ++*sleep_blocked;
        recording = false;
        scheduler.FreeRun(options.free_run_hard_cap);
        break;
      }
      chosen = best;
      // Defer the siblings this choice passes over. Sibling k's sleep set
      // is the current one plus the siblings ordered before it (and the
      // chosen thread), per the sleep-set discipline. Push in reverse so
      // the lowest-tid sibling pops (and completes) first.
      std::vector<BranchPoint> siblings;
      std::vector<int> sibling_sleep = sleep;
      sibling_sleep.push_back(chosen);
      for (int tid : enabled) {
        if (tid == chosen || InSet(sleep, tid)) {
          continue;
        }
        const bool preempts = last_tid >= 0 && tid != last_tid && InSet(enabled, last_tid);
        if (options.switch_bound >= 0 && preempts && switches >= options.switch_bound) {
          continue;
        }
        std::vector<int> prefix;
        prefix.reserve(trace.steps.size() + 1);
        for (const ScheduleStep& step : trace.steps) {
          prefix.push_back(step.tid);
        }
        siblings.push_back(BranchPoint{std::move(prefix), tid, sibling_sleep});
        sibling_sleep.push_back(tid);
      }
      for (auto it = siblings.rbegin(); it != siblings.rend(); ++it) {
        stack->push_back(std::move(*it));
      }
    }

    // Sleep propagation: members whose pending op depends on the chosen
    // op wake up (their next run would differ from the explored one).
    const PendingOp chosen_op = scheduler.PendingOf(chosen);
    if (!forced || pos == choices.size()) {
      std::vector<int> kept;
      for (int tid : sleep) {
        if (!InSet(enabled, tid) || !Dependent(scheduler.PendingOf(tid), chosen_op)) {
          kept.push_back(tid);
        }
      }
      sleep = std::move(kept);
    }
    if (last_tid >= 0 && chosen != last_tid && InSet(enabled, last_tid)) {
      ++switches;
    }
    last_tid = chosen;
    trace.steps.push_back(scheduler.Step(chosen));
  }

  if (litmus.check && recording) {
    trace.check_failure = litmus.check();
  } else if (litmus.check) {
    // Sleep-blocked drains re-execute known interleavings; skip the
    // (redundant) end-state check but keep any race/UAF the drain hit.
    (void)litmus.check();  // still run it: checks often uninstall observers
    trace.check_failure.clear();
  }
  trace.violation = scheduler.violation();
  scheduler.Finish();
  return trace;
}

}  // namespace

ExploreResult Explore(const Litmus& litmus, const ExploreOptions& options,
                      const FirstFailureFn& on_first_failure) {
  ExploreResult result;
  std::vector<BranchPoint> stack;
  stack.push_back(BranchPoint{{}, -1, {}});
  while (!stack.empty()) {
    if (result.schedules >= options.max_schedules) {
      result.budget_exhausted = true;
      break;
    }
    BranchPoint branch = std::move(stack.back());
    stack.pop_back();
    std::vector<int> choices = branch.prefix;
    std::vector<int> effective_sleep = branch.sleep;
    if (branch.alt >= 0) {
      choices.push_back(branch.alt);
    }
    if (!options.sleep_sets) {
      effective_sleep.clear();
    }
    uint64_t sleep_blocked = 0;
    ScheduleTrace trace =
        RunOne(litmus, options, choices, effective_sleep, &stack, &sleep_blocked);
    ++result.schedules;
    result.sleep_blocked += sleep_blocked;
    if (trace.truncated) {
      ++result.truncated;
    }
    if (trace.failed()) {
      ++result.failures;
      if (!result.first_failure) {
        result.first_failure = trace;
        if (on_first_failure) {
          on_first_failure(*result.first_failure, result.schedules);
        }
      }
    }
    std::vector<int> tids;
    tids.reserve(trace.steps.size());
    for (const ScheduleStep& step : trace.steps) {
      tids.push_back(step.tid);
    }
    result.schedule_tids.push_back(std::move(tids));
  }
  return result;
}

ScheduleTrace Replay(const Litmus& litmus, const std::vector<ReplayStep>& steps,
                     std::string* divergence) {
  ScheduleTrace trace;
  trace.litmus = litmus.name;
  if (divergence) {
    divergence->clear();
  }
  McScheduler scheduler(litmus.bodies);
  if (litmus.setup) {
    litmus.setup();
  }
  scheduler.Start();
  const uint64_t hard_cap = 1u << 20;
  for (const ReplayStep& expected : steps) {
    if (scheduler.AllDone()) {
      if (divergence && divergence->empty()) {
        *divergence = "program finished before the trace did";
      }
      break;
    }
    scheduler.CheckRaceAtState();
    const std::vector<int> enabled = scheduler.EnabledThreads();
    if (!InSet(enabled, expected.tid)) {
      if (divergence && divergence->empty()) {
        std::ostringstream out;
        out << "step " << trace.steps.size() << ": thread " << expected.tid
            << " not enabled";
        *divergence = out.str();
      }
      break;
    }
    const PendingOp pending = scheduler.PendingOf(expected.tid);
    const bool tag_known = !expected.addr_tag.empty() && expected.addr_tag != "-" &&
                           expected.addr_tag.compare(0, 2, "0x") != 0;
    if (pending.kind != expected.kind ||
        (tag_known && AddressTag(pending.addr) != expected.addr_tag)) {
      if (divergence && divergence->empty()) {
        std::ostringstream out;
        out << "step " << trace.steps.size() << ": thread " << expected.tid
            << " pending " << sp::OpKindName(pending.kind) << "@" << AddressTag(pending.addr)
            << ", trace says " << sp::OpKindName(expected.kind) << "@" << expected.addr_tag;
        *divergence = out.str();
      }
      break;
    }
    trace.steps.push_back(scheduler.Step(expected.tid));
  }
  // Drain whatever remains — replays of violation traces usually end right
  // at the violation, with threads still live.
  if (!scheduler.AllDone()) {
    scheduler.FreeRun(hard_cap);
  }
  if (litmus.check) {
    trace.check_failure = litmus.check();
  }
  trace.violation = scheduler.violation();
  scheduler.Finish();
  return trace;
}

}  // namespace sb7::mc

#endif  // SB7_MC
