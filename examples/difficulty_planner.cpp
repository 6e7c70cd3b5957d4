// Difficulty planner: an operator's walkthrough of the game theory in §3-§4.
//
// Given your clients' hash rates and your server's stress-test numbers, this
// prints the feasible price range, the finite-N and asymptotic equilibria,
// what each client population segment does at the chosen price, and the
// final (k, m) wire parameters.
//
//   ./build/examples/difficulty_planner [w_av] [alpha]
#include <cstdio>
#include <algorithm>
#include <cstdlib>

#include "game/model.hpp"
#include "game/planner.hpp"

using namespace tcpz;

int main(int argc, char** argv) {
  const double w_av = argc > 1 ? std::atof(argv[1]) : 140'630.0;
  const double alpha = argc > 2 ? std::atof(argv[2]) : 1.1;

  std::printf("== TCP puzzle difficulty planner ==\n");
  std::printf("inputs: w_av = %.0f hashes (client budget), alpha = %.2f "
              "(server provisioning)\n\n",
              w_av, alpha);

  // A heterogeneous population: some users value the service far less than
  // average (phones), some far more (paying customers).
  constexpr std::size_t kN = 300;
  game::GameConfig cfg;
  cfg.mu = alpha * kN;
  for (std::size_t i = 0; i < kN; ++i) {
    const double scale = (i % 10 == 0) ? 0.05    // 10%: barely interested
                         : (i % 10 < 8) ? 1.0    // 70%: average
                                        : 3.0;   // 20%: high valuation
    cfg.valuations.push_back(w_av * scale);
  }

  const double r_hat = game::max_feasible_price(cfg);
  std::printf("feasibility (Eq. 10): prices above r_hat = %.0f hashes drive "
              "every client away\n",
              r_hat);

  const auto finite = game::optimal_price(cfg);
  std::printf("finite-N optimum (N=%zu): price %.0f hashes, total rate %.1f "
              "req/s\n",
              kN, finite.price, finite.total_rate);

  const double asym = game::asymptotic_nash_price(w_av, alpha);
  std::printf("asymptotic Nash (Thm 1):  price %.0f hashes\n\n", asym);

  // What the population does at the planned price.
  const auto eq = game::solve_equilibrium(cfg, finite.price);
  std::size_t dropped = 0;
  double min_active = 1e18, max_active = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    if (eq.rates[i] <= 0) {
      ++dropped;
    } else {
      min_active = std::min(min_active, eq.rates[i]);
      max_active = std::max(max_active, eq.rates[i]);
    }
  }
  std::printf("at that price: %zu/%zu clients drop out (w_i below the "
              "price); active rates span %.2f-%.2f req/s\n",
              dropped, kN, min_active, max_active);

  // Factor into wire parameters under both Theorem-1 readings.
  for (const auto form :
       {game::NashForm::kAppendix, game::NashForm::kPaperExample}) {
    const double target = game::nash_hash_target(w_av, alpha, form);
    const auto d = game::choose_difficulty(target);
    const double solve_ms = d.expected_solve_hashes() / (w_av / 0.4) * 1000.0;
    std::printf("\n%s: target %.0f hashes -> %s\n",
                form == game::NashForm::kAppendix ? "appendix form  w_av/(a+1)"
                                                  : "paper example  ~w_av    ",
                target, d.to_string().c_str());
    std::printf("  avg client solve time %.0f ms; verify %.1f hashes; guess "
                "probability 2^-%u\n",
                solve_ms, d.expected_verify_hashes(), d.guess_bits());
  }

  std::printf("\nprovisioning sensitivity (what buying more servers buys "
              "your clients):\n  %-8s %-16s %-10s\n", "alpha", "price", "(k,m)");
  for (const double a : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    const double price = game::asymptotic_nash_price(w_av, a);
    const auto d = game::choose_difficulty(price);
    std::printf("  %-8.2f %-16.0f %-10s\n", a, price, d.to_string().c_str());
  }
  return 0;
}
