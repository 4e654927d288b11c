/// \file
/// Declarative workload scenarios (§6 "more workloads").
///
/// A scenario is an ordered list of timed phases; the harness drives all of
/// them in one run, swapping the operation mix, pacing and hotspot skew at
/// phase boundaries without restarting worker threads. Each phase can
/// override:
///   - the workload mix: a preset (r/rw/w) or an arbitrary read fraction,
///     category switches (long traversals, structure modifications) and a
///     per-phase operation blacklist;
///   - the active thread count (a ramp: the first k of the spawned workers
///     execute, the rest idle);
///   - the arrival model: closed-loop (a worker issues its next operation
///     as soon as the previous one finishes, as the paper does), or
///     open-loop with a target aggregate rate — Poisson arrivals or bursty
///     batches. Open-loop workers queue behind their arrival schedule; the
///     harness reports queue-delay percentiles and an estimated backlog
///     peak;
///   - Zipfian hotspot selection for random ids (see common/hotspot.h).
///
/// Phase durations are relative weights: the run's total `-l` length is
/// split across phases proportionally. A phase may also cap its started
/// operations (`max_ops`), ending early when the cap is reached — that is
/// what makes fixed-seed scenario runs deterministic enough to pin in
/// tests.
///
/// Scenarios come from ~5 built-in presets or from a key=value spec file;
/// see ParseScenarioSpec for the format.

#ifndef STMBENCH7_SRC_SCENARIO_SCENARIO_H_
#define STMBENCH7_SRC_SCENARIO_SCENARIO_H_

#include <iosfwd>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/harness/workload.h"

namespace sb7 {

struct PaceMetrics;

/// How operations arrive at the workers within a phase: closed-loop (the
/// paper's model — a worker issues its next operation as soon as the
/// previous one finishes), or open-loop Poisson / bursty arrivals against a
/// target rate.
enum class ArrivalModel { kClosed, kPoisson, kBursty };

std::string_view ArrivalModelName(ArrivalModel model);
/// Parses "closed" | "poisson" | "bursty"; false for anything else.
bool ParseArrivalModel(std::string_view name, ArrivalModel* out);

/// The open-loop arrival process of one worker, or of one load-client
/// connection: Poisson or bursty arrivals at that worker's share of the
/// target rate. The driver and the load client both pace with it, so an
/// in-process open-loop phase and a `--connect --arrival` run draw their
/// schedules the same way.
class ArrivalSchedule {
 public:
  /// Opens the process at `start_nanos`, for `rate` op/s. A Poisson
  /// process is staggered by one drawn gap, so workers opening together do
  /// not fire in lockstep.
  void Start(ArrivalModel model, double rate, int burst_size, int64_t start_nanos, Rng& rng);
  /// True once Start() has run.
  bool started() const { return next_nanos_ >= 0; }
  /// Returns the next scheduled arrival and advances past it. A Poisson gap
  /// takes exactly one uniform draw per arrival, which keeps fixed-seed
  /// runs stream-deterministic; bursty arrivals come burst_size back to
  /// back, spaced so the average still meets the rate.
  int64_t Next(Rng& rng);
  double rate() const { return rate_; }

 private:
  ArrivalModel model_ = ArrivalModel::kClosed;
  double rate_ = 0.0;
  int burst_size_ = 1;
  int64_t next_nanos_ = -1;
  int64_t count_ = 0;
};

/// Accounts one paced operation that started `delay` ns after it was due:
/// its queue delay and, when it is more than 1 ms late (less is scheduling
/// noise, not queueing), a delayed arrival and the backlog that lateness
/// implies at `rate` op/s (0 = no estimate).
void RecordArrivalDelay(PaceMetrics& pace, int64_t delay, double rate);

/// One timed phase of a scenario. Unset optional fields inherit the
/// run-level configuration.
struct PhaseSpec {
  std::string name = "phase";
  /// Relative duration weight (> 0); resolved against the run length.
  double duration_weight = 1.0;

  // Mix overrides; unset fields inherit the run-level configuration.
  std::optional<double> read_fraction;  ///< in [0, 1]
  std::optional<bool> long_traversals;
  std::optional<bool> structure_mods;
  std::set<std::string> disabled_ops;  ///< merged with the run-level blacklist

  /// Thread ramp: number of active workers (unset = run-level count).
  std::optional<int> threads;

  /// Arrival model. rate_ops_per_sec is the aggregate target across all
  /// active workers; required > 0 for the open-loop models. burst_size is
  /// the batch size of the bursty model.
  ArrivalModel arrival = ArrivalModel::kClosed;
  double rate_ops_per_sec = 0.0;
  int burst_size = 32;

  /// Zipfian hotspot skew for random ids; 0 = uniform.
  double zipf_theta = 0.0;
  /// Hot-set size (share of the id space) used for the hit-rate report.
  double hot_fraction = 0.1;

  /// Optional cap on started operations in this phase; -1 = unlimited. A
  /// capped phase ends as soon as the cap is reached — what makes
  /// fixed-seed scenario runs deterministic enough to pin in tests.
  int64_t max_ops = -1;
};

/// An ordered list of timed phases, driven in one benchmark run.
struct Scenario {
  std::string name;
  std::vector<PhaseSpec> phases;

  /// Sum of the phases' duration weights.
  double TotalWeight() const;
};

/// Names of the built-in scenarios, in presentation order:
/// steady-read, write-storm, diurnal, hotspot, ramp.
const std::vector<std::string>& BuiltinScenarioNames();
/// Comma-separated BuiltinScenarioNames(), for error messages.
std::string BuiltinScenarioList();
/// Resolves a built-in scenario by name; nullopt for unknown names.
std::optional<Scenario> FindBuiltinScenario(std::string_view name);

struct ScenarioParseResult {
  std::optional<Scenario> scenario;
  std::string error;  ///< set iff scenario is empty
};

/// Parses the spec format: one `key=value` per line, `#` comments, blank
/// lines ignored. `phase=<name>` starts a new phase; keys before the first
/// phase are scenario-level (currently `name=`). Per-phase keys:
///   duration=<weight>      relative duration weight (default 1)
///   workload=r|rw|w        preset read fraction
///   read_fraction=<f>      arbitrary read fraction in [0,1]
///   traversals=on|off      long traversals
///   sms=on|off             structure modifications
///   disable=OP4,OP5        comma-separated operation blacklist
///   threads=<n>            active worker count
///   arrival=closed|poisson|bursty
///   rate=<ops/sec>         open-loop target rate
///   burst=<n>              bursty batch size
///   zipf=<theta>           hotspot skew in [0,1)
///   hot_fraction=<f>       hot-set size for reporting, in (0,1]
///   max_ops=<n>            per-phase started-operation cap
ScenarioParseResult ParseScenarioSpec(std::istream& in, std::string_view default_name);

/// Resolves `--scenario <name|file>`: built-in names first, then a spec
/// file path. Unknown names produce an error listing the valid built-ins.
ScenarioParseResult LoadScenario(const std::string& name_or_path);

/// Random phase composition for the fuzz driver (src/check/fuzz.*): draws
/// a 1..max_phases phase list with random read fractions, category
/// switches, per-phase operation blacklists (from `op_names`), thread
/// counts and hotspot skew. Deterministic in the Rng stream. Phases are
/// named "p0", "p1", ... so a shrunk subset can be named in a reproduce
/// command. Every phase is closed-loop and capped at `ops_per_phase`
/// started operations — the caps, not wall-clock, end the phases, which is
/// what keeps fixed-seed fuzz cases replayable.
Scenario ComposeRandomScenario(Rng& rng, const std::vector<std::string>& op_names,
                               int max_phases, int64_t ops_per_phase, int max_threads);

}  // namespace sb7

#endif  // STMBENCH7_SRC_SCENARIO_SCENARIO_H_
