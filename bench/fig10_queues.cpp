// Figure 10 / Experiment 2: listen and accept queue occupancy during a
// connection flood — challenges vs cookies.
//
// Paper shape: with only cookies both queues saturate (zero client
// throughput); with challenges the accept queue is almost always empty and
// the listen queue is mostly saturated with openings.
#include "bench_common.hpp"

using namespace tcpz;

int main(int argc, char** argv) {
  const auto args = benchutil::parse(argc, argv);
  scenario::Spec base = benchutil::paper_spec(args);
  scenario::AttackSpec atk;
  // Raw nping flood: bypasses the bot kernel solver.
  atk.strategy = offense::StrategySpec::conn_flood(/*patched=*/false);
  base.attacks = {atk};

  benchutil::header(
      "Figure 10: listen/accept queue size during a connection flood",
      "cookies: both queues saturated; challenges: accept queue ~empty, "
      "listen queue mostly saturated with openings");

  scenario::Spec chal = base;
  chal.servers.policies = {defense::PolicySpec::puzzles()};
  chal.servers.difficulty = {2, 17};
  const scenario::Result chal_res =
      benchutil::run_scenario(chal, args, "challenges");
  const sim::ServerReport& with_chal = chal_res.server();

  scenario::Spec cook = base;
  cook.servers.policies = {defense::PolicySpec::syn_cookies()};
  const scenario::Result cook_res =
      benchutil::run_scenario(cook, args, "cookies");
  const sim::ServerReport& with_cook = cook_res.server();

  const std::size_t bins = base.duration_bins();
  std::printf("%-8s | %12s %12s | %12s %12s\n", "t(s)", "chal:listen",
              "chal:accept", "cook:listen", "cook:accept");
  for (std::size_t t = 0; t + 10 <= bins; t += 10) {
    const SimTime a = SimTime::seconds(static_cast<std::int64_t>(t));
    const SimTime b = a + SimTime::seconds(10);
    std::printf("%-8zu | %12.0f %12.0f | %12.0f %12.0f\n", t,
                with_chal.listen_queue.mean_in(a, b),
                with_chal.accept_queue.mean_in(a, b),
                with_cook.listen_queue.mean_in(a, b),
                with_cook.accept_queue.mean_in(a, b));
  }
  std::printf("(attack window: %zu-%zu s; backlog %zu/%zu)\n",
              base.attack_start_bin(), base.attack_end_bin(),
              base.servers.listen_backlog, base.servers.accept_backlog);

  const SimTime w0 = SimTime::seconds(
      static_cast<std::int64_t>(benchutil::atk_lo(base)));
  const SimTime w1 = SimTime::seconds(
      static_cast<std::int64_t>(benchutil::atk_hi(base)));
  const double cap_l = static_cast<double>(base.servers.listen_backlog);
  const double cap_a = static_cast<double>(base.servers.accept_backlog);

  benchutil::check(
      "cookies: accept queue saturated during the attack",
      with_cook.accept_queue.mean_in(w0, w1) > cap_a * 0.85);
  benchutil::check(
      "challenges: accept queue almost always empty",
      with_chal.accept_queue.mean_in(w0, w1) < cap_a * 0.1);
  benchutil::check(
      "challenges: accept queue emptier than with cookies by 5x+",
      with_chal.accept_queue.mean_in(w0, w1) * 5 <
          with_cook.accept_queue.mean_in(w0, w1));
  benchutil::check(
      "challenges: listen queue holds attack state (above 25% of cap)",
      with_chal.listen_queue.mean_in(w0, w1) > cap_l * 0.25);
  benchutil::check(
      "challenges: listen queue shows openings (not pinned at cap)",
      with_chal.listen_queue.mean_in(w0, w1) < cap_l);

  return benchutil::finish();
}
