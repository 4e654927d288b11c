// The sb7-mc driver: bounded deterministic exploration of the litmus
// registry (src/mc/litmus.h), with replay of recorded failing schedules.
//
// Exit codes: 0 every selected litmus matched its expectation, 1 at least
// one did not (a clean litmus failed, or a racy litmus explored clean, or a
// replay diverged), 2 usage.

#ifndef SB7_MC
#error "mc_main.cc requires an SB7_MC build (cmake -DSB7_MC=ON)"
#endif

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/text.h"
#include "src/mc/explorer.h"
#include "src/mc/litmus.h"
#include "src/mc/trace_io.h"

namespace {

std::string UsageText() {
  return R"(usage: sb7-mc [options]
  --list                 list registered litmus programs and exit
  --litmus <name>        explore one litmus (repeatable); default: all
  --smoke                restrict to the smoke tier with tight bounds
                         (CI's mc_smoke label; <60s on one core)
  --full                 lift the default bounds for a nightly-depth run
  --max-schedules <n>    execution budget per litmus
  --max-steps <n>        recorded steps per execution (then free-runs)
  --switch-bound <n>     max preemptions per schedule; -1 = unbounded
  --no-reduction         disable sleep-set reduction (soundness experiments)
  --trace-out <file>     write the first failing schedule as a replayable
                         trace (format: src/mc/trace_io.h) as soon as it
                         is found
  --replay <file>        replay a recorded trace instead of exploring; exit
                         0 iff the replay is faithful and reproduces the
                         recorded outcome class
  --help                 show this message
)";
}

struct Options {
  std::vector<std::string> litmus_names;
  bool list = false;
  bool smoke = false;
  bool full = false;
  bool help = false;
  std::string trace_out;
  std::string replay_path;
  sb7::mc::ExploreOptions explore;
  bool max_schedules_given = false;
  bool max_steps_given = false;
  std::string error;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  auto fail = [&options](const std::string& message) {
    if (options.error.empty()) {
      options.error = message;
    }
    return options;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string& out) {
      if (i + 1 >= argc) {
        return false;
      }
      out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--help" || arg == "-h") {
      options.help = true;
      return options;
    } else if (arg == "--list") {
      options.list = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--full") {
      options.full = true;
    } else if (arg == "--litmus") {
      if (!next(value) || value.empty()) {
        return fail("--litmus requires a name (see --list)");
      }
      options.litmus_names.push_back(value);
    } else if (arg == "--max-schedules") {
      uint64_t n = 0;
      if (!next(value) || !sb7::ParseUint64(value, n) || n == 0) {
        return fail("--max-schedules requires a positive count");
      }
      options.explore.max_schedules = n;
      options.max_schedules_given = true;
    } else if (arg == "--max-steps") {
      uint64_t n = 0;
      if (!next(value) || !sb7::ParseUint64(value, n) || n == 0) {
        return fail("--max-steps requires a positive count");
      }
      options.explore.max_steps = n;
      options.max_steps_given = true;
    } else if (arg == "--switch-bound") {
      int64_t n = 0;
      if (!next(value) || !sb7::ParseInt64(value, n) || n < -1) {
        return fail("--switch-bound requires a count or -1");
      }
      options.explore.switch_bound = static_cast<int>(n);
    } else if (arg == "--no-reduction") {
      options.explore.sleep_sets = false;
    } else if (arg == "--trace-out") {
      if (!next(options.trace_out) || options.trace_out.empty()) {
        return fail("--trace-out requires a file path");
      }
    } else if (arg == "--replay") {
      if (!next(options.replay_path) || options.replay_path.empty()) {
        return fail("--replay requires a trace file path");
      }
    } else {
      return fail("unknown argument '" + arg + "' (see --help)");
    }
  }
  if (options.smoke && options.full) {
    return fail("--smoke and --full are mutually exclusive");
  }
  return options;
}

std::vector<const sb7::mc::Litmus*> SelectLitmuses(const Options& options,
                                                   std::string* error) {
  std::vector<const sb7::mc::Litmus*> selected;
  if (!options.litmus_names.empty()) {
    for (const std::string& name : options.litmus_names) {
      const sb7::mc::Litmus* litmus = sb7::mc::FindLitmus(name);
      if (!litmus) {
        *error = "no litmus named '" + name + "' (see --list)";
        return {};
      }
      selected.push_back(litmus);
    }
    return selected;
  }
  for (const sb7::mc::Litmus& litmus : sb7::mc::AllLitmuses()) {
    if (options.smoke && !litmus.smoke) {
      continue;
    }
    selected.push_back(&litmus);
  }
  return selected;
}

int RunReplay(const Options& options) {
  std::string error;
  const auto file = sb7::mc::ReadTraceFile(options.replay_path, &error);
  if (!file) {
    std::cerr << "sb7-mc: bad trace " << options.replay_path << ": " << error << "\n";
    return 2;
  }
  const sb7::mc::Litmus* litmus = sb7::mc::FindLitmus(file->litmus);
  if (!litmus) {
    std::cerr << "sb7-mc: trace names unknown litmus '" << file->litmus << "'\n";
    return 2;
  }
  std::string divergence;
  const sb7::mc::ScheduleTrace trace =
      sb7::mc::Replay(*litmus, file->steps, &divergence);
  const bool recorded_failure = file->result.rfind("ok", 0) != 0;
  std::cout << "replay " << litmus->name << ": " << trace.steps.size() << "/"
            << file->steps.size() << " recorded steps granted\n";
  if (!divergence.empty()) {
    std::cout << "  DIVERGED: " << divergence << "\n";
    return 1;
  }
  if (trace.violation) {
    std::cout << "  reproduced: " << trace.violation.detail << "\n";
  } else if (!trace.check_failure.empty()) {
    std::cout << "  reproduced: " << trace.check_failure << "\n";
  } else {
    std::cout << "  clean execution\n";
  }
  if (recorded_failure != trace.failed()) {
    std::cout << "  MISMATCH: trace recorded '" << file->result << "' but replay "
              << (trace.failed() ? "failed" : "ran clean") << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseArgs(argc, argv);
  if (options.help) {
    std::cout << UsageText();
    return 0;
  }
  if (!options.error.empty()) {
    std::cerr << "sb7-mc: " << options.error << "\n" << UsageText();
    return 2;
  }
  if (options.list) {
    for (const sb7::mc::Litmus& litmus : sb7::mc::AllLitmuses()) {
      std::cout << litmus.name << (litmus.expect_violation ? "  [racy]" : "  [clean]")
                << (litmus.smoke ? " [smoke]" : "") << "\n    " << litmus.summary << "\n";
    }
    return 0;
  }
  if (!options.replay_path.empty()) {
    return RunReplay(options);
  }

  // Tier defaults; explicit flags win.
  if (options.smoke && !options.max_schedules_given) {
    options.explore.max_schedules = 200;
  }
  if (options.smoke && !options.max_steps_given) {
    options.explore.max_steps = 400;
  }
  if (options.full && !options.max_schedules_given) {
    options.explore.max_schedules = 200000;
  }

  std::string error;
  const auto selected = SelectLitmuses(options, &error);
  if (!error.empty()) {
    std::cerr << "sb7-mc: " << error << "\n";
    return 2;
  }

  int mismatches = 0;
  for (const sb7::mc::Litmus* litmus : selected) {
    // The first failing schedule settles the verdict (a clean litmus fails,
    // a racy one passes), so it is reported, and its trace written, the
    // moment it is found: a run cut off later by a wall-clock bound keeps it.
    std::string io_error;
    const auto report_failure = [&](const sb7::mc::ScheduleTrace& failure, uint64_t schedule) {
      std::cout << (litmus->expect_violation ? "PASS" : "FAIL") << " " << litmus->name
                << ": failing schedule at schedule " << schedule << "\n"
                << "  first failure: "
                << (failure.violation ? failure.violation.detail : failure.check_failure)
                << "\n";
      if (!options.trace_out.empty()) {
        if (sb7::mc::WriteTraceFile(options.trace_out, failure, litmus->num_threads(),
                                    &io_error)) {
          std::cout << "  trace written to " << options.trace_out << "\n";
        }
      }
      std::cout.flush();
    };
    const sb7::mc::ExploreResult result =
        sb7::mc::Explore(*litmus, options.explore, report_failure);
    if (!io_error.empty()) {
      std::cerr << "sb7-mc: " << io_error << "\n";
      return 2;
    }
    const bool found = result.failures > 0;
    const bool ok = found == litmus->expect_violation;
    std::cout << (ok ? "PASS" : "FAIL") << " " << litmus->name << ": " << result.schedules
              << " schedules, " << result.failures << " failing, " << result.sleep_blocked
              << " sleep-blocked, " << result.truncated << " truncated"
              << (result.budget_exhausted ? " (budget exhausted)" : "") << "\n";
    if (!ok) {
      ++mismatches;
      if (litmus->expect_violation) {
        std::cout << "  expected a failing schedule; exploration was clean\n";
      }
    }
  }
  return mismatches == 0 ? 0 : 1;
}
