// Unified metrics registry: every counter, gauge and histogram a run
// produces, under one name+labels scheme, so bench JSON, fleet aggregation
// and the (future) bench-history comparator all read the same shape instead
// of each growing a private field list.
//
// The register_* helpers expand the same X-macro field tables that declare
// the structs (TCPZ_LISTENER_COUNTER_FIELDS, TCPZ_HOST_REPORT_*_FIELDS,
// TCPZ_SERVER_REPORT_*_FIELDS) — adding a field to a table automatically
// adds it to operator+=, the golden digests, CSV output AND the registry.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "sim/metrics.hpp"
#include "tcp/counters.hpp"

namespace tcpz::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Summary statistics of a histogram metric (enough to merge across
/// replicas without shipping raw samples).
struct HistStats {
  std::uint64_t count = 0;
  double min = 0;
  double max = 0;
  double sum = 0;

  void add(double v) {
    if (count == 0 || v < min) min = v;
    if (count == 0 || v > max) max = v;
    sum += v;
    ++count;
  }
  [[nodiscard]] double mean() const {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
};

struct Metric {
  std::string name;
  /// Preformatted "k=v,k2=v2" label set ("" = unlabelled). Identity is
  /// (name, labels, kind) — merge() folds matching metrics together.
  std::string labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;  ///< counter/gauge value (unused for histograms)
  HistStats hist;
  std::string help;

  [[nodiscard]] std::string key() const {
    return labels.empty() ? name : name + "{" + labels + "}";
  }
};

class Registry {
 public:
  void counter(std::string_view name, std::string_view labels, double value,
               std::string_view help = {});
  void gauge(std::string_view name, std::string_view labels, double value,
             std::string_view help = {});
  void histogram(std::string_view name, std::string_view labels,
                 const HistStats& h, std::string_view help = {});

  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] std::size_t size() const { return metrics_.size(); }
  /// The metric with this key() (name or "name{labels}"), or nullptr.
  [[nodiscard]] const Metric* find(std::string_view key) const;
  /// Convenience: the value of a counter/gauge by key, or fallback.
  [[nodiscard]] double value(std::string_view key, double fallback = 0) const;

  /// Fleet aggregation: fold `other` in, matching on (name, labels, kind).
  /// Counters add; gauges take the incoming value (last writer wins, like a
  /// scrape); histograms merge their summary stats. Unmatched metrics are
  /// appended.
  void merge(const Registry& other);

  /// One flat JSON object, deterministically ordered by registration:
  ///   {"name{labels}": value, "hist{...}": {"count":..,"min":..,...}}
  /// `indent` spaces prefix every line (for embedding in a larger file).
  void write_json(std::FILE* f, int indent = 0) const;
  [[nodiscard]] std::string to_json(int indent = 0) const;

 private:
  Metric& upsert(std::string_view name, std::string_view labels,
                 MetricKind kind, std::string_view help);
  std::vector<Metric> metrics_;
};

// -- field-table registration -------------------------------------------------
// Labels name the producer (e.g. "server=0", "group=conn-flood,bot=3").

/// Every ListenerCounters field as a counter, from the X-macro table.
void register_metrics(Registry& reg, const tcp::ListenerCounters& c,
                      std::string_view labels);
/// HostReport totals (table) as counters, conn_time_ms as a histogram and
/// the last CPU sample as a gauge.
void register_metrics(Registry& reg, const sim::HostReport& r,
                      std::string_view labels);
/// ServerReport: listener counters (table), each series' run total (table)
/// as a counter, each gauge's final sample (table) plus final_difficulty_m.
void register_metrics(Registry& reg, const sim::ServerReport& r,
                      std::string_view labels);

}  // namespace tcpz::obs
