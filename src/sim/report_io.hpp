// CSV export of scenario results, so the figure data can be plotted with
// external tooling (gnuplot/matplotlib). One file per series family:
//   <prefix>_throughput.csv   t, server_tx_mbps, client_rx_mbps[i]...
//   <prefix>_queues.csv       t, listen, accept, cpu, difficulty_m
//   <prefix>_attack.csv       t, attacker_cps, client_cps, bot_measured_pps
//   <prefix>_conn_times.csv   sorted per-connection times (ms), one per line
//   <prefix>_summary.csv      listener counters as key,value rows
#pragma once

#include <string>

#include "scenario/spec.hpp"

namespace tcpz::sim {

/// Writes the CSV family; returns the number of files written. Throws
/// std::runtime_error if a file cannot be created.
std::size_t write_csv(const scenario::Result& result,
                      const scenario::Spec& spec, const std::string& prefix);

}  // namespace tcpz::sim
