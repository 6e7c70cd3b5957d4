// Figure 12 / Experiment 3: boxplot of the per-client throughput during a
// connection flood across the difficulty grid k in {1..4} x m in
// {12,15,16,17,18,20}.
//
// Paper shape: for any k, m < ~12 fails to slow attackers (denial of
// service); the Nash setting (2,17) gives the most stable throughput
// (good mean, low variability); very hard settings depress throughput
// because clients pay too much per connection.
#include "bench_common.hpp"

using namespace tcpz;

namespace {

/// Per-second samples of aggregate client goodput during the attack window.
BoxplotStats throughput_box(const scenario::Result& res,
                            const scenario::Spec& spec) {
  SampleSet samples;
  for (std::size_t t = benchutil::atk_lo(spec); t < benchutil::atk_hi(spec);
       ++t) {
    samples.add(res.legit.rx_bytes.rate_at(t) * 8 / 1e6);
  }
  return BoxplotStats::from(samples);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::parse(argc, argv);
  scenario::Spec base = benchutil::paper_spec(args);
  if (!args.full) {
    // 24 scenarios: shrink the timeline further to keep the default run fast.
    base.duration = SimTime::seconds(90);
    base.attack_start = SimTime::seconds(20);
    base.attack_end = SimTime::seconds(70);
  }
  base.servers.policies = {defense::PolicySpec::puzzles()};
  base.attacks = {scenario::AttackSpec{}};  // patched conn flood

  benchutil::header(
      "Figure 12: client throughput boxplots across (k, m) during a "
      "connection flood",
      "m below ~12 fails to stop the flood; the Nash (2,17) balances "
      "throughput and stability; harder settings overcharge clients");

  const std::uint8_t ks[] = {1, 2, 3, 4};
  const std::uint8_t ms[] = {12, 15, 16, 17, 18, 20};

  double mean_of[5][21] = {};
  double median_of[5][21] = {};
  double stddev_proxy[5][21] = {};  // IQR as the variability measure
  std::printf("%-10s %6s %8s %8s %8s %8s %8s %8s\n", "setting", "mean", "min",
              "q1", "median", "q3", "max", "IQR");
  for (const std::uint8_t k : ks) {
    for (const std::uint8_t m : ms) {
      scenario::Spec spec = base;
      spec.seed = args.seed + 1000u * k + m;
      spec.servers.difficulty = {k, m};
      std::string run = "k";
      run.append(std::to_string(k)).append("m").append(std::to_string(m));
      const scenario::Result res = benchutil::run_scenario(spec, args, run);
      const auto box = throughput_box(res, spec);
      mean_of[k][m] = box.mean;
      median_of[k][m] = box.median;
      stddev_proxy[k][m] = box.q3 - box.q1;
      std::printf("(k=%u,m=%-2u) %6.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
                  k, m, box.mean, box.min, box.q1, box.median, box.q3, box.max,
                  box.q3 - box.q1);
    }
    std::printf("\n");
  }

  // Reference: nominal no-attack throughput for the same workload.
  scenario::Spec calm = base;
  calm.attacks.clear();
  const scenario::Result calm_res = benchutil::run_scenario(calm, args, "calm");
  const double nominal = calm_res.client_rx_mbps(benchutil::pre_lo(calm),
                                                 benchutil::pre_hi(calm));
  std::printf("nominal (no attack): %.2f Mbps aggregate\n\n", nominal);

  // §6.3's observations, checked as the paper states them:
  //  * "for any k, if m < 12 the ease of solving does not affect the
  //    attackers' rate, thus causing a denial of service" — at m=12 the
  //    throughput is "highly unstable, reaching zero at many times": the
  //    median collapses even when spiky openings inflate the mean.
  benchutil::check("m=12 throughput median collapses (< 20% of the m=17 "
                   "median) for every k",
                   [&] {
                     for (const std::uint8_t k : ks) {
                       if (median_of[k][12] >= median_of[k][17] * 0.2) {
                         return false;
                       }
                     }
                     return true;
                   }());
  //  * "when the difficulty is set to (k=2, m=16), the throughput achieves a
  //    slightly better average with comparable variability" than the Nash
  //    (2,17) — the paper's own concession, reproduced here.
  benchutil::check("(2,16) mean is at or above the Nash (2,17) mean",
                   mean_of[2][16] >= mean_of[2][17]);
  benchutil::check("Nash (2,17) keeps a stable median >= 10% of nominal",
                   median_of[2][17] > nominal * 0.10);
  benchutil::check("the hardest setting (4,20) is below (2,17): clients "
                   "overpay per connection",
                   mean_of[4][20] < mean_of[2][17]);
  benchutil::check("Nash (2,17) is far more stable than m=12 (IQR at least "
                   "5x smaller)",
                   stddev_proxy[2][17] * 5.0 < stddev_proxy[2][12]);
  benchutil::check("(2,17) variability (IQR) is not the worst of its row",
                   [&] {
                     double worst = 0;
                     for (const std::uint8_t m : ms) {
                       worst = std::max(worst, stddev_proxy[2][m]);
                     }
                     return stddev_proxy[2][17] < worst;
                   }());

  return benchutil::finish();
}
