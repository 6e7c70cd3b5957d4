// Figure 3: performance profiles used to set the model parameters.
//   (a) client profile: hashes performed over time per CPU; w_av = average
//       hashes a client performs in 400 ms (paper: 140630).
//   (b) server profile: service rate µ and service parameter α = µ/c as the
//       number of concurrent requests grows (paper: µ ~ 1100 req/s, α -> 1.1).
//
// (a) uses the modeled device hash rates (reconstructed so the fleet average
// matches the paper's w_av exactly) plus a live measurement of THIS host's
// real SHA-256 rate for context. (b) measures µ through the simulator: a
// saturating workload against the M/M/1 application server.
#include <chrono>

#include "bench_common.hpp"
#include "crypto/sha256.hpp"
#include "game/planner.hpp"
#include "sim/devices.hpp"
#include "workload/profiles.hpp"

using namespace tcpz;

// The Fig. 3 constants this bench validates live in workload/profiles.hpp —
// the same single source the ClientAgent defaults and the fluid population
// price against.
namespace profiles = workload::profiles;

namespace {

double measure_host_hash_rate() {
  crypto::Sha256Digest d{};
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t n = 0;
  while (std::chrono::steady_clock::now() - start <
         std::chrono::milliseconds(200)) {
    for (int i = 0; i < 1000; ++i) {
      d = crypto::Sha256::hash(std::span<const std::uint8_t>(d.data(), d.size()));
    }
    n += 1000;
  }
  const double sec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  return static_cast<double>(n) / sec;
}

/// Fig. 3b stress test: c saturating clients against the application server;
/// returns the sustained response rate.
double measure_service_rate(const benchutil::Args& args, int concurrency) {
  scenario::Spec s;
  s.seed = args.seed;
  s.duration = SimTime::seconds(args.full ? 60 : 20);
  s.attack_start = s.duration;  // no attack
  s.attack_end = s.duration;
  s.workload.n_clients = concurrency;
  s.workload.request_rate =
      3.0 * s.servers.service_rate / std::max(1, concurrency);
  s.workload.request_bytes = 100;
  s.workload.response_bytes = 1000;  // keep links out of the way
  s.servers.policies = {defense::PolicySpec::none()};
  s.servers.listen_backlog = 16384;
  s.servers.accept_backlog = 16384;
  std::string run = "c";
  run.append(std::to_string(concurrency));
  const scenario::Result res = benchutil::run_scenario(s, args, run);
  const std::size_t end = s.duration_bins();
  return res.server().responses.mean_rate(end / 4, end - 1);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::parse(argc, argv);

  benchutil::header(
      "Figure 3(a): client performance profiles (w_av)",
      "three Xeon client CPUs average w_av = 140630 hashes in 400 ms");

  std::printf("%-8s %-45s %14s %18s\n", "cpu", "description", "hashes/s",
              "hashes in 400ms");
  std::vector<double> rates;
  for (const auto& dev : sim::kClientCpus) {
    rates.push_back(dev.hash_rate);
    std::printf("%-8s %-45s %14.0f %18.0f\n", dev.name.data(),
                dev.description.data(), dev.hash_rate,
                dev.hash_rate * profiles::kWavWindowSec);
  }
  const double w_av = game::estimate_wav_fleet(rates);
  std::printf("%-8s %-45s %14s %18.0f  <- w_av\n", "fleet", "average", "",
              w_av);

  const double host_rate = measure_host_hash_rate();
  std::printf("%-8s %-45s %14.0f %18.0f  (real measurement, context only)\n",
              "host", "this machine, single thread, our SHA-256", host_rate,
              host_rate * profiles::kWavWindowSec);

  benchutil::check("fleet w_av matches the paper's 140630 within 1%",
                   std::abs(w_av - profiles::kClientWav) / profiles::kClientWav <
                       0.01);
  benchutil::check("every modeled client solves >= 100k hashes in 400 ms",
                   [&] {
                     for (double r : rates) {
                       if (r * profiles::kWavWindowSec < 100'000) return false;
                     }
                     return true;
                   }());

  benchutil::header(
      "Figure 3(b): server profile (mu, alpha) via stress test",
      "service rate stays ~constant (~1100 req/s) under load; alpha -> 1.1");

  std::printf("%-22s %14s %14s\n", "concurrent requests", "service rate",
              "alpha = mu/c");
  std::vector<game::StressPoint> points;
  double mu_high = 0;
  for (const int c : {1, 2, 5, 10, 25, 50, 100, 250, 500, 1000}) {
    const double mu = measure_service_rate(args, c);
    const double alpha = mu / c;
    points.push_back({static_cast<double>(c), mu});
    std::printf("%-22d %14.1f %14.3f\n", c, mu, alpha);
    mu_high = mu;
  }
  const double alpha = game::estimate_alpha(points, 3);
  std::printf("\nestimated alpha (high-load tail): %.3f\n", alpha);
  std::printf("estimated mu at saturation:      %.1f req/s\n", mu_high);

  benchutil::check("service rate saturates near the configured mu=1100 (+-15%)",
                   std::abs(mu_high - profiles::kServiceRateMu) /
                           profiles::kServiceRateMu <
                       0.15);
  benchutil::check("alpha decreases with concurrency and ends near mu/c",
                   points.front().service_rate / points.front().concurrent_requests >
                       alpha);

  const double target = game::nash_hash_target(w_av, 1.1,
                                               game::NashForm::kPaperExample);
  const auto diff = game::choose_difficulty(target);
  std::printf("\nresulting Nash difficulty (paper-example form): %s\n",
              diff.to_string().c_str());
  benchutil::check("planner reproduces the paper's (k=2, m=17)",
                   diff.k == 2 && diff.m == 17);

  return benchutil::finish();
}
