// Shared types of the repo benchmark: the metric sink every workload writes
// into, the run options, and small timing/statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes for the benchmark's own smoke test (not for measurement).
  bool tiny = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One named output check; any failure makes the run incorrect.
struct Check {
  std::string what;
  bool ok = false;
};

/// A figure printed beside the metrics but left out of the result JSON.
struct Aux {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

/// Everything one workload run reports.
struct Report {
  std::vector<Metric> metrics;
  std::vector<Aux> aux_metrics;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, std::string>> labels;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void aux(std::string name, double value, std::string unit, std::string note) {
    aux_metrics.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  }
  void check(std::string what, bool ok) { checks.push_back({std::move(what), ok}); }
  void label(std::string key, std::string value) {
    labels.emplace_back(std::move(key), std::move(value));
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a copy of `v` (0 for an empty vector).
double median(std::vector<double> v);

/// num / den, or 0 when there is no base.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Process peak resident set size in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// CPU seconds of the whole process / of the calling thread.
double process_cpu_s();
double thread_cpu_s();

/// Nanoseconds per call of `fn`, the median of `batches` timed batches of
/// `per_batch` calls each.
template <typename F>
double ns_per_op(F&& fn, int per_batch, int batches = 7) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < per_batch; ++i) fn(i);
    v.push_back(seconds_since(t0) * 1e9 / per_batch);
  }
  return median(std::move(v));
}

// Workloads. Each fills `out` with its end-to-end metrics (untraced) or its
// per-layer metrics (traced), plus checks, labels and operation counts.
void run_puzzle_flood(const Options& opt, Report& out);
void run_syn_exhaust(const Options& opt, Report& out);
void run_wire_storm(const Options& opt, Report& out);

}  // namespace perfbench
