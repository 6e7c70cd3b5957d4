#include "game/planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "defense/spec.hpp"
#include "game/model.hpp"

namespace tcpz::game {

double estimate_wav(double hashes_per_second, double budget_ms) {
  if (hashes_per_second < 0 || budget_ms < 0) {
    throw std::invalid_argument("estimate_wav: negative input");
  }
  return hashes_per_second * (budget_ms / 1000.0);
}

double estimate_wav_fleet(const std::vector<double>& hash_rates,
                          double budget_ms) {
  if (hash_rates.empty()) return 0.0;
  double sum = 0.0;
  for (double r : hash_rates) sum += estimate_wav(r, budget_ms);
  return sum / static_cast<double>(hash_rates.size());
}

double estimate_alpha(const std::vector<StressPoint>& points, std::size_t tail) {
  if (points.empty()) return 0.0;
  const std::size_t n = std::min(tail == 0 ? points.size() : tail, points.size());
  double sum = 0.0;
  std::size_t used = 0;
  for (std::size_t i = points.size() - n; i < points.size(); ++i) {
    if (points[i].concurrent_requests > 0) {
      sum += points[i].service_rate / points[i].concurrent_requests;
      ++used;
    }
  }
  return used ? sum / static_cast<double>(used) : 0.0;
}

double nash_hash_target(double w_av, double alpha, NashForm form) {
  switch (form) {
    case NashForm::kAppendix:
      return asymptotic_nash_price(w_av, alpha);
    case NashForm::kPaperExample:
      return w_av;
  }
  return 0.0;
}

puzzle::Difficulty choose_difficulty(double hash_target, PlannerOptions opts) {
  if (hash_target < 1.0) hash_target = 1.0;
  if (opts.k_max == 0 || opts.k_max > 255) opts.k_max = 8;
  if (opts.m_max == 0 || opts.m_max > 62) opts.m_max = 30;

  puzzle::Difficulty fallback{1, 1};
  double fallback_err = std::numeric_limits<double>::infinity();
  for (unsigned k = 1; k <= opts.k_max; ++k) {
    // m minimizing |k·2^(m-1) - target| for this k.
    const double ideal = std::log2(hash_target / static_cast<double>(k)) + 1.0;
    unsigned m = 0;
    double best_err = std::numeric_limits<double>::infinity();
    for (long cand = std::lround(std::floor(ideal));
         cand <= std::lround(std::ceil(ideal)); ++cand) {
      const unsigned mm = static_cast<unsigned>(
          std::clamp<long>(cand, 1, static_cast<long>(opts.m_max)));
      const double err = std::abs(
          static_cast<double>(k) * std::exp2(static_cast<double>(mm) - 1.0) -
          hash_target);
      if (err < best_err) {
        best_err = err;
        m = mm;
      }
    }
    const puzzle::Difficulty d{static_cast<std::uint8_t>(k),
                               static_cast<std::uint8_t>(m)};
    if (d.guess_bits() >= opts.min_guess_bits) {
      return d;  // smallest acceptable k = cheapest verification
    }
    if (best_err < fallback_err) {
      fallback_err = best_err;
      fallback = d;
    }
  }
  // No k satisfies the guessing bound (tiny targets): return the closest fit.
  return fallback;
}

Plan plan_difficulty(const PlanInput& input) {
  Plan plan;
  plan.w_av = estimate_wav_fleet(input.client_hash_rates, input.budget_ms);
  plan.alpha = estimate_alpha(input.stress_test);
  plan.hash_target = nash_hash_target(plan.w_av, plan.alpha, input.form);
  plan.difficulty = choose_difficulty(plan.hash_target, input.options);
  return plan;
}

ProtectedServer make_protected_server(const ProtectedServerSettings& settings,
                                      crypto::SecretKey secret,
                                      std::uint64_t seed) {
  ProtectedServer out;
  out.plan = plan_difficulty(settings.plan);
  out.engine =
      std::make_shared<puzzle::Sha256PuzzleEngine>(secret, settings.engine);

  tcp::ListenerConfig lcfg;
  lcfg.local_addr = settings.local_addr;
  lcfg.local_port = settings.local_port;
  lcfg.listen_backlog = settings.listen_backlog;
  lcfg.accept_backlog = settings.accept_backlog;
  lcfg.policy = defense::PolicySpec::puzzles().factory();
  lcfg.difficulty = out.plan.difficulty;
  out.listener = std::make_unique<tcp::Listener>(lcfg, secret, seed, out.engine);
  return out;
}

}  // namespace tcpz::game
