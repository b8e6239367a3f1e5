// wide_map: one long-lived runtime (pool, bus, registry, TrackerSet, unbound
// controller) serves consecutive runs of a flat map of ~1024 sleep-calibrated
// sub-millisecond muscles. Estimates carry over from run to run (the paper's
// scenario 2), and each run is armed with a WCT goal of 1.5x the ideal LP-4
// time. Analyze dominates here: the workload that exposes the MAPE loop's
// cost as the ADG grows.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rig.hpp"
#include "workload/calibrated.hpp"

namespace autobench {

namespace {

constexpr int kMaxLp = 4;
constexpr double kGrain = 0.0005;  // mean muscle grain, seconds
// Peak RSS and retained tracker instances are read after this many measured
// runs (about half of what a 15 s window holds), not at the window's end.
constexpr int kFixedRuns = 32;

struct Item {
  std::int64_t i = 0;
  double grain = 0.0;
};

struct WideMap {
  int n = 0;
  double goal = 0.0;          // 1.5x the ideal LP-4 time
  std::int64_t expected = 0;  // sum of i*i over [0, n), closed form
  askel::Skel<std::int64_t, std::int64_t> skel{nullptr};
};

WideMap make_wide_map(int n, std::uint64_t seed) {
  WideMap w;
  w.n = n;
  // Seeded grain jitter: 0.5x..1.5x of the mean.
  std::vector<double> grains;
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    grains.push_back(kGrain * (0.5 + unit_draw(seed, static_cast<std::uint64_t>(i))));
    total += grains.back();
  }
  w.goal = 1.5 * total / kMaxLp;
  const std::int64_t m = n;
  w.expected = (m - 1) * m * (2 * m - 1) / 6;

  auto fs = askel::split_muscle<std::int64_t, Item>("fs", [grains](std::int64_t k) {
    std::vector<Item> items;
    items.reserve(static_cast<std::size_t>(k));
    for (std::int64_t i = 0; i < k; ++i) {
      items.push_back(Item{i, grains[static_cast<std::size_t>(i)]});
    }
    return items;
  });
  auto fe = askel::execute_muscle<Item, std::int64_t>("fe", [](Item it) {
    askel::simulate_work(it.grain);
    return it.i * it.i;
  });
  auto fm = askel::merge_muscle<std::int64_t, std::int64_t>(
      "fm", [](std::vector<std::int64_t> parts) {
        std::int64_t sum = 0;
        for (const std::int64_t p : parts) sum += p;
        return sum;
      });
  fs.m = traced_split(fs.m);
  fe.m = traced_execute(fe.m);
  fm.m = traced_merge(fm.m);
  w.skel = askel::Map(fs, askel::Seq(fe), fm);
  return w;
}

}  // namespace

void run_wide_map(const Options& opt, Result& res) {
  const WideMap w = make_wide_map(opt.short_mode ? 128 : 1024, opt.seed);
  const int warmups = opt.short_mode ? 1 : 2;
  res.context.push_back("muscles=" + std::to_string(w.n) + " grain_mean_ms=0.5 goal_s=" +
                        std::to_string(w.goal) + " max_lp=4 warmups=" +
                        std::to_string(warmups));
  auto check = [&](std::int64_t got) {
    return got == w.expected ? std::string()
                             : "wide_map: sum " + std::to_string(got) + " != " +
                                   std::to_string(w.expected);
  };
  // Long-lived runtime: warm-up runs leave estimates in the registry.
  auto set_up = [&] {
    auto rig = std::make_unique<AutonomicRig>(1, kMaxLp);
    for (int k = 0; k < warmups; ++k) rig->run(res, w.skel, std::int64_t{w.n}, w.goal, check);
    return rig;
  };
  long met = 0;
  auto autonomic_run = [&](AutonomicRig& rig) {
    return [&] {
      bool ok = false;
      const RunRecord r = rig.run(res, w.skel, std::int64_t{w.n}, w.goal, check, &ok);
      met += ok;
      return r;
    };
  };

  if (!opt.trace) {
    std::vector<double> setups;
    std::unique_ptr<AutonomicRig> rig;
    for (int k = 0; k < 3; ++k) {
      rig.reset();
      const double t0 = wall_now();
      rig = set_up();
      setups.push_back(wall_now() - t0);
    }
    const RunSet set = run_for(opt.seconds, kFixedRuns, autonomic_run(*rig), &rig->trackers());
    add_batch_metrics(res, setups, set, "run");
    res.context.push_back("goal_met=" + std::to_string(met) + "/" +
                          std::to_string(set.runs.size()) + " tracked_instances=" +
                          std::to_string(set.tracked_instances) + " after " +
                          std::to_string(warmups) + " warm-up and " +
                          std::to_string(kFixedRuns) + " measured runs");
    return;
  }

  // Untraced autonomic runs, then the same map at fixed max LP with no
  // autonomic listener, then the traced autonomic runs.
  std::unique_ptr<AutonomicRig> rig = set_up();
  const RunSet plain =
      run_for(opt.seconds * 0.4, kFixedRuns, autonomic_run(*rig), &rig->trackers());
  const long plain_met = met;
  const int lp_before = rig->pool().target_lp();
  rig->listen(AutonomicRig::Listeners::kNone);
  rig->pool().set_target_lp(kMaxLp);
  const RunSet fixed = run_for(opt.seconds * 0.2, 1, [&] {
    return rig->run(res, w.skel, std::int64_t{w.n}, 0.0, check);
  });
  rig->pool().set_target_lp(lp_before);

  rig->listen(AutonomicRig::Listeners::kTraced);
  rig->reset_counters();
  trace::clear();
  trace::enable(true);
  const RunSet traced = run_for(opt.seconds * 0.4, 1, autonomic_run(*rig));
  trace::enable(false);
  res.spans = trace::collect();
  rig->listen(AutonomicRig::Listeners::kPlain);

  add_layer_metrics(res, res.spans, wct_layer_inputs(*rig, plain, fixed, traced, plain_met));
  res.context.push_back("untraced_runs=" + std::to_string(plain.runs.size()) +
                        " fixed_lp_runs=" + std::to_string(fixed.runs.size()) +
                        " traced_runs=" + std::to_string(traced.runs.size()));
}

}  // namespace autobench
