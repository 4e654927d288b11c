// sb7-loadgen: one (workload, backend) process of the closed-loop benchmark.
//
//   sb7-loadgen --backend tl2 --workers 2 --read-fraction 0.1
//               --long-traversals 0 --seed 7 --max-ops 5000 [--traced 1]
//               [--redo-log FILE]
//
// Measures one closed-loop run and prints one JSON line with its set-up
// time, counts, latency percentiles, peak RSS, per-layer figures and the
// results of its output checks. perfbench/run.py starts one per segment.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>

#include "loadgen.h"

namespace {

using sb7::loadgen::RunConfig;
using sb7::loadgen::RunResult;

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"", static_cast<unsigned long long>(value));
  return buf;
}

std::string RunJson(const RunConfig& config, const RunResult& r) {
  std::ostringstream out;
  out << "{\"backend\":" << Quote(config.backend) << ",\"workers\":" << config.workers
      << ",\"traced\":" << (config.traced ? "true" : "false")
      << ",\"setup_s\":" << Num(r.setup_seconds) << ",\"elapsed_s\":" << Num(r.elapsed_seconds)
      << ",\"ops\":" << r.sums.ops << ",\"spec_failed\":" << r.sums.spec_failed
      << ",\"other_failed\":" << r.sums.other_failed
      << ",\"latency_samples\":" << r.latency_samples << ",\"p50_ms\":" << Num(r.p50_ms)
      << ",\"p99_ms\":" << Num(r.p99_ms) << ",\"p99_has_tail\":"
      << (sb7::loadgen::HasTailSamples(r.latency_samples, 0.99) ? "true" : "false")
      << ",\"peak_rss_mb\":" << Num(r.peak_rss_mb) << ",\"limbo_begin\":" << r.limbo_begin
      << ",\"limbo_end\":" << r.limbo_end
      << ",\"invariants_ok\":" << (r.invariants_ok ? "true" : "false")
      << ",\"first_violation\":" << Quote(r.first_violation)
      << ",\"fingerprint\":" << Hex(r.fingerprint) << ",\"results_hash\":" << Hex(r.results_hash)
      << ",\"layers\":{";
  const auto layers = sb7::loadgen::LayerReport(r);
  for (size_t i = 0; i < layers.size(); ++i) {
    out << (i > 0 ? "," : "") << Quote(layers[i].first) << ":" << Num(layers[i].second);
  }
  out << "},\"redo\":{\"groups\":" << r.redo.groups << ",\"members\":" << r.redo.members
      << ",\"bytes\":" << r.redo.bytes << ",\"fsyncs\":" << r.redo.fsyncs << "}"
      << ",\"recovery\":{\"ran\":" << (r.recovery.ran ? "true" : "false")
      << ",\"ok\":" << (r.recovery.ok ? "true" : "false")
      << ",\"ops_replayed\":" << r.recovery.ops_replayed
      << ",\"fingerprint\":" << Hex(r.recovery.fingerprint)
      << ",\"error\":" << Quote(r.recovery.error) << "}"
      << ",\"build\":{\"compiler\":" << Quote(LOADGEN_COMPILER)
      << ",\"flags\":" << Quote(LOADGEN_CXX_FLAGS)
      << ",\"build_type\":" << Quote(LOADGEN_BUILD_TYPE) << "}}";
  return out.str();
}

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr, "sb7-loadgen: %s\n", error.c_str());
  std::exit(2);
}

bool ParseFlag(const std::string& text) {
  if (text == "1" || text == "true") {
    return true;
  }
  if (text == "0" || text == "false") {
    return false;
  }
  Usage("expected 0 or 1, got '" + text + "'");
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      Usage("arguments are --key value pairs");
    }
    args[key.substr(2)] = argv[i + 1];
  }
  const auto take = [&args](const std::string& key, const std::string& fallback) {
    const auto it = args.find(key);
    if (it == args.end()) {
      return fallback;
    }
    std::string value = it->second;
    args.erase(it);
    return value;
  };

  RunConfig config;
  try {
    config.backend = take("backend", config.backend);
    config.read_fraction = std::stod(take("read-fraction", "0.9"));
    config.long_traversals = ParseFlag(take("long-traversals", "1"));
    config.workers = std::stoi(take("workers", "1"));
    config.seed = std::stoull(take("seed", "1"));
    config.max_operations = std::stoll(take("max-ops", "0"));
    config.traced = ParseFlag(take("traced", "0"));
    config.redo_log_path = take("redo-log", "");
  } catch (const std::exception&) {
    Usage("malformed numeric argument");
  }
  if (!args.empty()) {
    Usage("unknown argument --" + args.begin()->first);
  }
  if (config.backend != "coarse" && config.backend != "tl2" && config.backend != "mvstm") {
    Usage("backend must be coarse, tl2 or mvstm");
  }
  if (config.workers < 1 || config.max_operations < 1 || config.read_fraction < 0 ||
      config.read_fraction > 1) {
    Usage("need --workers >= 1, --max-ops >= 1 and --read-fraction in [0, 1]");
  }
  if (!config.redo_log_path.empty() && config.backend != "mvstm") {
    Usage("--redo-log needs --backend mvstm");
  }

  const RunResult result = sb7::loadgen::RunClosedLoop(config);
  std::printf("%s\n", RunJson(config, result).c_str());
  return 0;
}
