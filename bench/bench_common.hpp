// Shared scaffolding for the figure/table reproduction benches.
//
// Every bench prints (1) the series/rows the paper's figure plots, as
// aligned columns, and (2) a set of PASS/FAIL shape checks against the
// paper's qualitative claims. Default runs use the scaled timeline
// (scenario::Spec::scaled()); pass --full for paper-scale durations.
//
// finish() also writes results/BENCH_<artifact>.json (under the working
// directory, created on demand) — the shape checks plus any metric() values,
// machine-readable so CI can track the perf/fidelity trajectory across
// commits. Reports used to land loose in the build tree and were committed
// by accident; the curated copies now live in the repo-root results/.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/sha256.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "par/engine.hpp"
#include "scenario/spec.hpp"

namespace benchutil {

struct Args {
  bool full = false;
  std::uint64_t seed = 42;
  /// --trace: run scenarios with the flight recorder installed and export
  /// Chrome trace_event JSON to results/TRACE_<artifact>[_<run>].json.
  bool trace = false;
  std::size_t trace_ring = 1u << 16;  ///< --trace-ring N (events)
  /// --shards N: run scenarios on the sharded engine (src/par/) with N
  /// worker shards. 1 (the default) is the plain single-thread path.
  int shards = 1;
};

/// Shard count of the current bench process, recorded in every BENCH JSON
/// label block (set by parse(), read by write_json_report()).
inline int g_shards = 1;  // NOLINT

inline Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) args.full = true;
    if (std::strcmp(argv[i], "--trace") == 0) args.trace = true;
    if (std::strcmp(argv[i], "--trace-ring") == 0 && i + 1 < argc) {
      args.trace_ring = std::strtoull(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      args.shards = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    }
  }
  g_shards = args.shards;
  return args;
}

inline std::string g_artifact;                               // NOLINT
inline std::vector<std::pair<std::string, bool>> g_checks;   // NOLINT
inline std::vector<std::pair<std::string, double>> g_metrics;  // NOLINT
inline std::vector<std::pair<std::string, std::string>> g_labels;  // NOLINT
inline int g_failures = 0;                                   // NOLINT

inline void header(const char* artifact, const char* claim) {
  g_artifact = artifact;
  std::printf("\n=== %s ===\n", artifact);
  std::printf("paper claim: %s\n\n", claim);
}

inline bool check(const char* what, bool ok) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what);
  g_checks.emplace_back(what, ok);
  if (!ok) ++benchutil::g_failures;
  return ok;
}

/// Records a named scalar for the JSON report (and echoes it).
inline double metric(const char* name, double value) {
  std::printf("metric %-40s %.6g\n", name, value);
  g_metrics.emplace_back(name, value);
  return value;
}

/// Records a named string for the JSON report (and echoes it) — e.g. which
/// defense policy produced a series, so result files identify the policy
/// instead of a bare enum value.
inline void label(const char* name, const std::string& value) {
  std::printf("label  %-40s %s\n", name, value.c_str());
  g_labels.emplace_back(name, value);
}

inline tcpz::obs::Registry g_registry;  // NOLINT

inline std::string sanitize(const std::string& s) {
  std::string out;
  for (const char c : s) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return out;
}

/// Folds one scenario result into the bench's metrics registry: per-server
/// metrics labelled server=<i>, hosts aggregated by role (merge semantics —
/// counters and histograms sum across hosts sharing a label). `run` prefixes
/// the labels so multi-run benches (e.g. one run per policy) stay separable.
inline void register_result(const tcpz::scenario::Result& res,
                            const std::string& run = {}) {
  namespace obs = tcpz::obs;
  const std::string prefix = run.empty() ? "" : "run=" + run + ",";
  for (std::size_t i = 0; i < res.servers.size(); ++i) {
    obs::register_metrics(g_registry, res.servers[i],
                          prefix + "server=" + std::to_string(i));
  }
  for (const auto& c : res.clients) {
    obs::register_metrics(g_registry, c, prefix + "role=client");
  }
  for (const auto& f : res.fluid) {
    // Aggregate fluid-population reports (hybrid workloads): totals are
    // scaled in whole users (the populations' series are in Result::legit),
    // under their own role label so fleet-wide legit metrics are
    // role=client + role=fluid.
    obs::register_metrics(g_registry, f, prefix + "role=fluid");
  }
  for (const auto& g : res.groups) {
    for (const auto& b : g.bots) {
      obs::register_metrics(g_registry, b, prefix + "role=bot,group=" + g.name);
    }
  }
  if (res.trace) {
    const std::string l = run.empty() ? "" : "run=" + run;
    g_registry.counter("trace.events_recorded", l,
                       static_cast<double>(res.trace->total_recorded()),
                       "events accepted by the flight recorder");
    g_registry.counter("trace.events_overwritten", l,
                       static_cast<double>(res.trace->overwritten()),
                       "oldest events lost to ring wrap");
    g_registry.counter("trace.events_suppressed", l,
                       static_cast<double>(res.trace->suppressed()),
                       "events refused by the category mask");
  }
}

/// Runs a Spec with the bench's observability settings applied and folds
/// the result into the metrics registry. Under --trace the run gets a
/// flight recorder and exports results/TRACE_<artifact>[_<run>].json.
inline tcpz::scenario::Result run_scenario(tcpz::scenario::Spec spec,
                                           const Args& args,
                                           const std::string& run = {}) {
  if (args.trace) {
    spec.obs.trace = true;
    spec.obs.ring_capacity = args.trace_ring;
    std::error_code ec;
    std::filesystem::create_directories("results", ec);
    std::string stem = "results/TRACE_" + sanitize(g_artifact);
    if (!run.empty()) stem.append("_").append(sanitize(run));
    spec.obs.chrome_trace_path = stem + ".json";
    spec.obs.flows_path = stem + ".flows.txt";
  }
  tcpz::scenario::Result res =
      args.shards > 1 ? tcpz::par::run(spec, {.shards = args.shards})
                      : tcpz::scenario::run(spec);
  register_result(res, run);
  return res;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// The first "model name" line of /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

/// results/BENCH_<artifact>.json: {"artifact", "failures", "checks",
/// "metrics", "labels", "metrics_registry"}.
inline void write_json_report() {
  if (g_artifact.empty()) return;
  const std::string fname = "results/BENCH_" + sanitize(g_artifact) + ".json";
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  if (ec) return;
  std::FILE* f = std::fopen(fname.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"artifact\": \"%s\",\n  \"failures\": %d,\n",
               json_escape(g_artifact).c_str(), g_failures);
  std::fprintf(f, "  \"checks\": {");
  for (std::size_t i = 0; i < g_checks.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %s", i ? "," : "",
                 json_escape(g_checks[i].first).c_str(),
                 g_checks[i].second ? "true" : "false");
  }
  std::fprintf(f, "\n  },\n  \"metrics\": {");
  for (std::size_t i = 0; i < g_metrics.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %.9g", i ? "," : "",
                 json_escape(g_metrics[i].first).c_str(), g_metrics[i].second);
  }
  // Every report identifies its engine configuration and hardware: the
  // shard count, hardware threads, CPU model and SHA-256 path always lead
  // the labels, so sharded and single-thread runs of the same bench, and
  // runs from different machines, are distinguishable.
  std::fprintf(f, "\n  },\n  \"labels\": {\n    \"shards\": \"%d\"", g_shards);
  std::fprintf(f, ",\n    \"hw_threads\": \"%u\"",
               std::thread::hardware_concurrency());
  std::fprintf(f, ",\n    \"cpu_model\": \"%s\"",
               json_escape(cpu_model()).c_str());
  std::fprintf(f, ",\n    \"sha256_impl\": \"%s\"",
               tcpz::crypto::sha256_impl());
  for (std::size_t i = 0; i < g_labels.size(); ++i) {
    std::fprintf(f, ",\n    \"%s\": \"%s\"",
                 json_escape(g_labels[i].first).c_str(),
                 json_escape(g_labels[i].second).c_str());
  }
  // The uniform metrics block (see obs/registry.hpp): every scenario the
  // bench ran through run_scenario(), one flat name{labels} -> value map.
  std::fprintf(f, "\n  },\n  \"metrics_registry\": ");
  g_registry.write_json(f, 2);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

inline int finish() {
  write_json_report();
  if (g_failures == 0) {
    std::printf("\nall shape checks passed\n");
  } else {
    std::printf("\n%d shape check(s) FAILED\n", g_failures);
  }
  return g_failures == 0 ? 0 : 1;
}

/// The paper's §6 experiment as a declarative scenario::Spec at either
/// scale. No attack groups yet — benches push their own.
inline tcpz::scenario::Spec paper_spec(const Args& args) {
  tcpz::scenario::Spec s;
  s.seed = args.seed;
  if (!args.full) s = s.scaled();
  return s;
}

/// Seconds bins of the pre-attack window (with margin for warm-up/edges).
inline std::size_t pre_lo(const tcpz::scenario::Spec& s) {
  return s.attack_start_bin() / 2;
}
inline std::size_t pre_hi(const tcpz::scenario::Spec& s) {
  return s.attack_start_bin() - 2;
}
/// Bins of the steady part of the attack window.
inline std::size_t atk_lo(const tcpz::scenario::Spec& s) {
  return s.attack_start_bin() + (s.attack_end_bin() - s.attack_start_bin()) / 4;
}
inline std::size_t atk_hi(const tcpz::scenario::Spec& s) {
  return s.attack_end_bin() - 1;
}

}  // namespace benchutil
