// The repo benchmark binary.
//
//   perfbench --workload <puzzle_flood|syn_exhaust|wire_storm> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny]
//
// Runs one workload, prints a human-readable block (run label, checks,
// metrics) and, as the last line of stdout, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when an output check fails, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

double cpu_clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out + "\"";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <puzzle_flood|syn_exhaust|"
               "wire_storm> --seed N --seconds S --trace 0|1 [--tiny]\n");
  return 2;
}

}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0)) return usage();

  Report rep;
  rep.label("workload", opt.workload);
  rep.label("seed", std::to_string(opt.seed));
  rep.label("pass", opt.trace ? "traced" : "untraced");
  rep.label("hw_threads", std::to_string(std::thread::hardware_concurrency()));
  rep.label("cpu_model", cpu_model());
#ifdef NDEBUG
  rep.label("build_type", "Release");
#else
  rep.label("build_type", "Debug");
#endif
  if (opt.tiny) rep.label("size", "tiny (smoke test, not a measurement)");

  try {
    if (opt.workload == "puzzle_flood") {
      run_puzzle_flood(opt, rep);
    } else if (opt.workload == "syn_exhaust") {
      run_syn_exhaust(opt, rep);
    } else if (opt.workload == "wire_storm") {
      run_wire_storm(opt, rep);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }

  std::printf("== perfbench %s ==\n", opt.workload.c_str());
  std::string label_json;
  for (const auto& [k, v] : rep.labels) {
    std::printf("label  %-22s %s\n", k.c_str(), v.c_str());
    label_json += (label_json.empty() ? "" : ", ") + json_str(k) + ": " +
                  json_str(v);
  }
  bool correct = rep.attempted > 0;
  for (const Check& c : rep.checks) {
    std::printf("[%s] %s\n", c.ok ? "PASS" : "FAIL", c.what.c_str());
    correct = correct && c.ok;
  }
  std::string metrics_json;
  for (const Metric& m : rep.metrics) {
    std::printf("metric %-34s %.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    char buf[64];
    // Non-finite values are not JSON; report them as an output failure.
    if (!std::isfinite(m.value)) correct = false;
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    metrics_json += (metrics_json.empty() ? "" : ", ") + json_str(m.name) +
                    ": {\"value\": " + buf + ", \"unit\": " + json_str(m.unit) +
                    "}";
  }
  for (const Aux& a : rep.aux_metrics) {
    std::printf("aux    %-34s %.9g %s (%s)\n", a.name.c_str(), a.value,
                a.unit.c_str(), a.note.c_str());
  }
  std::printf("{\"label\": {%s}}\n", label_json.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed), metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
