#include "obs/registry.hpp"

#include <cinttypes>
#include <cmath>

namespace tcpz::obs {

Metric& Registry::upsert(std::string_view name, std::string_view labels,
                         MetricKind kind, std::string_view help) {
  for (Metric& m : metrics_) {
    if (m.kind == kind && m.name == name && m.labels == labels) return m;
  }
  Metric m;
  m.name = std::string(name);
  m.labels = std::string(labels);
  m.kind = kind;
  m.help = std::string(help);
  metrics_.push_back(std::move(m));
  return metrics_.back();
}

void Registry::counter(std::string_view name, std::string_view labels,
                       double value, std::string_view help) {
  upsert(name, labels, MetricKind::kCounter, help).value += value;
}

void Registry::gauge(std::string_view name, std::string_view labels,
                     double value, std::string_view help) {
  upsert(name, labels, MetricKind::kGauge, help).value = value;
}

void Registry::histogram(std::string_view name, std::string_view labels,
                         const HistStats& h, std::string_view help) {
  Metric& m = upsert(name, labels, MetricKind::kHistogram, help);
  if (h.count == 0) return;
  if (m.hist.count == 0) {
    m.hist = h;
  } else {
    m.hist.min = std::min(m.hist.min, h.min);
    m.hist.max = std::max(m.hist.max, h.max);
    m.hist.count += h.count;
    m.hist.sum += h.sum;
  }
}

const Metric* Registry::find(std::string_view key) const {
  for (const Metric& m : metrics_) {
    if (m.key() == key) return &m;
  }
  return nullptr;
}

double Registry::value(std::string_view key, double fallback) const {
  const Metric* m = find(key);
  return m != nullptr ? m->value : fallback;
}

void Registry::merge(const Registry& other) {
  for (const Metric& m : other.metrics_) {
    switch (m.kind) {
      case MetricKind::kCounter: counter(m.name, m.labels, m.value, m.help); break;
      case MetricKind::kGauge: gauge(m.name, m.labels, m.value, m.help); break;
      case MetricKind::kHistogram: histogram(m.name, m.labels, m.hist, m.help); break;
    }
  }
}

namespace {

/// Counter values are integral in practice; print them without a mantissa so
/// the JSON diff cleanly. Everything else keeps full precision.
void write_number(std::FILE* f, double v) {
  if (std::nearbyint(v) == v && std::fabs(v) < 9.007e15) {
    std::fprintf(f, "%" PRId64, static_cast<std::int64_t>(v));
  } else {
    std::fprintf(f, "%.6g", v);
  }
}

}  // namespace

void Registry::write_json(std::FILE* f, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::fprintf(f, "{");
  bool first = true;
  for (const Metric& m : metrics_) {
    std::fprintf(f, "%s\n%s  \"%s\": ", first ? "" : ",", pad.c_str(),
                 m.key().c_str());
    first = false;
    if (m.kind == MetricKind::kHistogram) {
      std::fprintf(f, "{\"count\": %" PRIu64 ", \"min\": ", m.hist.count);
      write_number(f, m.hist.min);
      std::fprintf(f, ", \"max\": ");
      write_number(f, m.hist.max);
      std::fprintf(f, ", \"mean\": ");
      write_number(f, m.hist.mean());
      std::fprintf(f, "}");
    } else {
      write_number(f, m.value);
    }
  }
  std::fprintf(f, "\n%s}", pad.c_str());
}

std::string Registry::to_json(int indent) const {
  std::FILE* f = std::tmpfile();
  if (f == nullptr) return "{}";
  write_json(f, indent);
  const long len = std::ftell(f);
  std::string out(static_cast<std::size_t>(len), '\0');
  std::rewind(f);
  const std::size_t got = std::fread(out.data(), 1, out.size(), f);
  out.resize(got);
  std::fclose(f);
  return out;
}

// -- field-table registration -------------------------------------------------

void register_metrics(Registry& reg, const tcp::ListenerCounters& c,
                      std::string_view labels) {
#define TCPZ_X(name, help) \
  reg.counter("listener." #name, labels, static_cast<double>(c.name), help);
  TCPZ_LISTENER_COUNTER_FIELDS(TCPZ_X)
#undef TCPZ_X
}

void register_metrics(Registry& reg, const sim::HostReport& r,
                      std::string_view labels) {
#define TCPZ_X(name, help) \
  reg.counter("host." #name, labels, static_cast<double>(r.name), help);
  TCPZ_HOST_REPORT_TOTAL_FIELDS(TCPZ_X)
#undef TCPZ_X
  if (!r.conn_time_ms.empty()) {
    HistStats h;
    h.count = static_cast<std::uint64_t>(r.conn_time_ms.count());
    h.min = r.conn_time_ms.min();
    h.max = r.conn_time_ms.max();
    h.sum = r.conn_time_ms.mean() * static_cast<double>(r.conn_time_ms.count());
    reg.histogram("host.conn_time_ms", labels, h,
                  "SYN sent -> established (includes solve time)");
  }
  if (!r.cpu.empty()) {
    reg.gauge("host.cpu", labels, r.cpu.back(),
              "host CPU utilization, final sample");
  }
}

void register_metrics(Registry& reg, const sim::ServerReport& r,
                      std::string_view labels) {
  register_metrics(reg, r.counters, labels);
#define TCPZ_X(name, help) \
  reg.counter("server." #name, labels, r.name.sum(), help);
  TCPZ_SERVER_REPORT_SERIES_FIELDS(TCPZ_X)
#undef TCPZ_X
#define TCPZ_X(name, help)                                            \
  if (!r.name.empty()) {                                              \
    reg.gauge("server." #name, labels, r.name.back(),                 \
              help ", final sample");                                 \
  }
  TCPZ_SERVER_REPORT_GAUGE_FIELDS(TCPZ_X)
#undef TCPZ_X
  reg.gauge("server.final_difficulty_m", labels, r.final_difficulty_m,
            "puzzle difficulty bits m at end of run");
}

}  // namespace tcpz::obs
