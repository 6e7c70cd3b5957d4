#include "workload/fluid.hpp"

#include <algorithm>
#include <cmath>

#include "tcp/connector.hpp"

namespace tcpz::workload {
namespace {

/// The discrete client's connector defaults: the SYN retry cadence and
/// budget the retry drain mirrors, and the MSS that segments responses.
constexpr tcp::ConnectorConfig kConnector{};

// Wire sizes for byte accounting, matching tcp::Segment::wire_size() for the
// typical option layouts (base header 40 = IP + TCP). Handshake bytes are a
// rounding error next to the response payload, so nominal option sizes are
// fine here.
constexpr double kSynWire = 60;          // SYN with mss/wscale/timestamps
constexpr double kSynAckWire = 60;       // plain or challenge SYN-ACK
constexpr double kAckWire = 40;          // bare handshake ACK
constexpr double kSolutionAckWire = 64;  // ACK + solution block
constexpr double kRstWire = 40;

}  // namespace

FluidPopulation::FluidPopulation(FluidConfig cfg, puzzle::Difficulty initial,
                                 sim::RoleSeries& series)
    : cfg_(cfg), difficulty_(initial), series_(series) {}

void FluidPopulation::establish(SimTime now, double mass) {
  if (mass <= 0) return;
  series_.established.add(now, mass);
  c_established_.add(report_.total_established, mass);
  series_.tx_bytes.add(now, mass * (40.0 + cfg_.model.request_bytes));
  service_ += mass;
}

void FluidPopulation::deceive(SimTime now, double mass) {
  if (mass <= 0) return;
  // §5 deception: the senders believe they connected (established from the
  // client's view), send their request, and the server answers RST.
  series_.established.add(now, mass);
  c_established_.add(report_.total_established, mass);
  series_.tx_bytes.add(now, mass * (40.0 + cfg_.model.request_bytes));
  series_.rx_bytes.add(now, mass * kRstWire);
  c_rsts_.add(report_.total_rsts, mass);
  fail(now, mass);
}

void FluidPopulation::fail(SimTime now, double mass) {
  if (mass <= 0) return;
  series_.failures.add(now, mass);
  c_failures_.add(report_.total_failures, mass);
  failed_ += mass;
}

void FluidPopulation::refuse(SimTime now, double mass) {
  if (mass <= 0) return;
  series_.refusals.add(now, mass);
  c_refused_.add(report_.solves_refused, mass);
  refused_ += mass;
}

void FluidPopulation::step(SimTime now, SimTime dt, tcp::Listener& listener) {
  const double dts = dt.to_seconds();
  if (dts <= 0 || cfg_.users <= 0) return;

  // 1. Fresh open-loop demand plus the SYN-retry re-offers. The retry timer
  // becomes an exponential drain at the same mean; of the mass whose timer
  // fires, 1/max_syn_retries has exhausted its retries and gives up.
  const double fresh = cfg_.users * cfg_.model.request_rate * dts;
  created_ += fresh;
  series_.attempts.add(now, fresh);
  c_attempts_.add(report_.total_attempts, fresh);

  double reoffer = 0;
  if (synretry_ > 0) {
    const double due =
        synretry_ * std::min(1.0, dts / kConnector.syn_timeout.to_seconds());
    synretry_ -= due;
    const double gaveup = kConnector.max_syn_retries > 0
                              ? due / kConnector.max_syn_retries
                              : due;
    reoffer = due - gaveup;
    fail(now, gaveup);
  }

  // 2. One admission verdict for the tick's SYN mass, through the real
  // defense policy over the combined discrete+fluid queue view.
  const double offered = fresh + reoffer;
  const tcp::Listener::FluidAdmission adm =
      listener.admit_fluid_syns(now, offered);
  series_.tx_bytes.add(now, offered * kSynWire);
  series_.rx_bytes.add(
      now, (adm.enqueued + adm.challenged + adm.cookied) * kSynAckWire);
  synretry_ += adm.dropped;

  // 3. Challenged mass enters the per-user bounded solve backlog (connect()
  // backpressure: beyond N*max_pending the attempt is refused pre-wire).
  if (adm.challenged > 0) {
    difficulty_ = adm.difficulty;
    c_challenges_.add(report_.challenges_seen, adm.challenged);
    if (!cfg_.solve_puzzles) {
      refuse(now, adm.challenged);
    } else {
      const double cap =
          cfg_.users * static_cast<double>(cfg_.model.max_pending_solves);
      const double take = std::min(adm.challenged, std::max(0.0, cap - solveq_));
      refuse(now, adm.challenged - take);
      solveq_ += take;
    }
  }

  // 4. Solve throughput: N*lanes serial searches at the Fig. 3a price.
  const double ts =
      static_cast<double>(difficulty_.expected_solve_hashes()) / cfg_.cpu.hash_rate;
  solve_busy_ = 0;
  if (solveq_ > 0 && ts > 0) {
    const double capacity =
        cfg_.users * static_cast<double>(cfg_.cpu.solver_lanes) * dts / ts;
    const double solved = std::min(solveq_, capacity);
    solveq_ -= solved;
    solve_busy_ = capacity > 0 ? solved / capacity : 0;
    if (solved > 0) {
      series_.tx_bytes.add(now, solved * kSolutionAckWire);
      const double admitted = listener.admit_fluid_handshakes(now, solved,
                                                              /*puzzle_path=*/true);
      establish(now, admitted);
      deceive(now, solved - admitted);  // stateless path: fail fast on RST
    }
  }

  // 5. Queue/cookie handshakes, synchronous within the tick (RTT << dt),
  // plus the parked mass whose SYN-ACK-retx cadence re-offers it.
  double parked_retry = 0;
  if (parked_ > 0) {
    parked_retry =
        parked_ * std::min(1.0, dts / kConnector.syn_timeout.to_seconds());
    parked_ -= parked_retry;
  }
  const double queue_mass = adm.enqueued + parked_retry;
  const double stateless_mass = adm.cookied;
  const double handshakes = queue_mass + stateless_mass;
  if (handshakes > 0) {
    series_.tx_bytes.add(now, (adm.enqueued + adm.cookied) * kAckWire);
    const double admitted = listener.admit_fluid_handshakes(
        now, handshakes, /*puzzle_path=*/false);
    establish(now, admitted);
    const double rejected = handshakes - admitted;
    if (rejected > 0) {
      // Pro-rata: queue-path mass parks (holds a listen slot, retries);
      // cookie-path mass is deceived like the solution path.
      const double qshare = queue_mass / handshakes;
      parked_ += rejected * qshare;
      deceive(now, rejected * (1.0 - qshare));
    }
  }

  // 6. Service: the population's share of mu drains the response backlog.
  if (service_ > 0) {
    const double served = std::min(service_, cfg_.service_rate * dts);
    service_ -= served;
    completed_ += served;
    series_.completions.add(now, served);
    c_completions_.add(report_.total_completions, served);
    const double segments =
        std::ceil(static_cast<double>(cfg_.model.response_bytes) /
                  static_cast<double>(kConnector.mss));
    series_.rx_bytes.add(now,
                         served * (cfg_.model.response_bytes + segments * 40.0));
  }

  // 7. Parked attempts hit their response deadline.
  if (parked_ > 0) {
    const double expired =
        parked_ * std::min(1.0, dts / cfg_.response_timeout.to_seconds());
    parked_ -= expired;
    fail(now, expired);
  }

  // 8. Publish occupancy: parked handshakes hold listen slots; the service
  // backlog is accept-queue depth.
  listener.set_fluid_occupancy(parked_, std::max(0.0, service_));
}

void FluidPopulation::sample(SimTime now) {
  // Core utilization: solver-lane busy fraction scaled by lanes/cores (the
  // solver is the only modeled CPU consumer on the client, as in Fig. 9).
  const double util = solve_busy_ * static_cast<double>(cfg_.cpu.solver_lanes) /
                      std::max(1, cfg_.cpu.cores);
  report_.cpu.record(now, util);
}

double FluidPopulation::conservation_error() const {
  const double accounted = completed_ + failed_ + refused_ + solveq_ +
                           synretry_ + parked_ + service_;
  return std::abs(created_ - accounted);
}

}  // namespace tcpz::workload
