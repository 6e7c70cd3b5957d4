#include "sim/report_io.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

namespace tcpz::sim {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

File open_or_throw(const std::string& path) {
  File f(std::fopen(path.c_str(), "w"));
  if (!f) throw std::runtime_error("write_csv: cannot create " + path);
  return f;
}

}  // namespace

std::size_t write_csv(const scenario::Result& result,
                      const scenario::Spec& spec, const std::string& prefix) {
  std::size_t files = 0;
  const std::size_t bins = spec.duration_bins();
  const ServerReport& server = result.server();

  {
    File f = open_or_throw(prefix + "_throughput.csv");
    std::fprintf(f.get(), "t_s,server_tx_mbps");
    for (std::size_t i = 0; i < result.clients.size(); ++i) {
      std::fprintf(f.get(), ",client%zu_rx_mbps", i);
    }
    std::fprintf(f.get(), "\n");
    for (std::size_t t = 0; t < bins; ++t) {
      std::fprintf(f.get(), "%zu,%.4f", t, server.tx_mbps(t, t + 1));
      for (const auto& c : result.clients) {
        std::fprintf(f.get(), ",%.4f", c.rx_mbps(t, t + 1));
      }
      std::fprintf(f.get(), "\n");
    }
    ++files;
  }
  {
    File f = open_or_throw(prefix + "_queues.csv");
    std::fprintf(f.get(), "t_s,listen,accept,server_cpu,difficulty_m\n");
    for (std::size_t t = 0; t < bins; ++t) {
      const SimTime a = SimTime::seconds(static_cast<std::int64_t>(t));
      const SimTime b = a + SimTime::seconds(1);
      std::fprintf(f.get(), "%zu,%.1f,%.1f,%.4f,%.0f\n", t,
                   server.listen_queue.mean_in(a, b),
                   server.accept_queue.mean_in(a, b),
                   server.cpu.mean_in(a, b),
                   server.difficulty_m.mean_in(a, b));
    }
    ++files;
  }
  {
    File f = open_or_throw(prefix + "_attack.csv");
    std::fprintf(f.get(), "t_s,attacker_cps,client_cps,bot_measured_pps\n");
    for (std::size_t t = 0; t < bins; ++t) {
      std::fprintf(f.get(), "%zu,%.2f,%.2f,%.1f\n", t,
                   server.established_attacker.rate_at(t),
                   server.established_client.rate_at(t),
                   result.bot_measured_rate(t, t + 1));
    }
    ++files;
  }
  {
    File f = open_or_throw(prefix + "_conn_times.csv");
    std::fprintf(f.get(), "conn_time_ms\n");
    for (const auto& c : result.clients) {
      for (const double ms : c.conn_time_ms.sorted()) {
        std::fprintf(f.get(), "%.4f\n", ms);
      }
    }
    ++files;
  }
  {
    File f = open_or_throw(prefix + "_summary.csv");
    const auto& c = server.counters;
    std::fprintf(f.get(), "key,value\n");
    std::fprintf(f.get(), "policy,%s\n", server.policy.c_str());
    std::fprintf(f.get(), "final_difficulty_m,%.0f\n",
                 server.final_difficulty_m);
    // Every counter, expanded from the field table — the old hand-written
    // row list had drifted to 17 of 31 fields (drops_listen_full among the
    // silently missing); the table makes that class of bug impossible.
#define TCPZ_X(name, help)                      \
  std::fprintf(f.get(), "%s,%llu\n", #name,     \
               static_cast<unsigned long long>(c.name));
    TCPZ_LISTENER_COUNTER_FIELDS(TCPZ_X)
#undef TCPZ_X
    ++files;
  }
  return files;
}

}  // namespace tcpz::sim
