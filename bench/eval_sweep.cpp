// Evaluation-cost sweep: what one MAPE evaluation costs as a flat map grows
// and its muscles get finer or coarser.
//
// For each width N and muscle grain, one long-lived runtime (pool of up to 4
// threads, registry, TrackerSet, unbound controller) serves a warm-up run,
// which leaves every estimate in the registry, then measured runs armed with
// a goal of 1.5x the ideal LP-4 time (wide_map's shape). Per cell it prints
// the evaluation cost p50/p99 (the controller's own measurement of each
// evaluation), the live muscles (not yet finished) at an evaluation, p50,
// and the cost per live muscle, p50; evaluations per run, the share of runs
// that met the goal and the LP-seconds (integral of the pool's target LP)
// per run.
//
// Since the controller plans on the frontier snapshot, an evaluation costs
// about what the live muscles cost: the cost per live muscle stays roughly
// flat across N while the cost itself follows the live count. The
// duty-cycle floor (next evaluation >= 50x the last one's cost) turns that
// into a cadence that depends on the frontier too.
//
// Usage: eval_sweep [--smoke]   (smoke: N <= 1024, grain <= 0.5 ms)
// Output: one JSON object on stdout.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "askel.hpp"
#include "workload/calibrated.hpp"

namespace {

using namespace askel;

constexpr int kMaxLp = 4;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

struct Cell {
  int n = 0;
  double grain = 0.0;
  int runs = 0;
  std::vector<double> eval_us;
  std::vector<double> live;         // muscles not yet finished, per evaluation
  std::vector<double> ns_per_live;
  long evaluations = 0;
  int met = 0;
  double lp_s = 0.0;
};

Cell run_cell(int n, double grain, int measured_runs) {
  Cell cell;
  cell.n = n;
  cell.grain = grain;
  cell.runs = measured_runs;
  auto fs = split_muscle<int, int>("fs", [](int k) {
    std::vector<int> v(static_cast<std::size_t>(k));
    std::iota(v.begin(), v.end(), 0);
    return v;
  });
  auto fe = execute_muscle<int, int>("fe", [grain](int x) {
    simulate_work(grain);
    return x;
  });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int> v) {
    return static_cast<int>(v.size());
  });
  const auto skel = Map(fs, Seq(fe), fm);
  const double goal = 1.5 * n * grain / kMaxLp;

  ResizableThreadPool pool(1, kMaxLp);
  EventBus bus;
  EstimateRegistry reg;
  TrackerSet trackers(reg);
  AutonomicController ctl(pool, trackers);
  Engine engine(pool, bus);
  std::mutex mu;
  long seen = 0;
  long finished = 0;  // fe muscles finished in this run
  bool sampling = false;
  bus.add_listener(trackers.as_listener());
  bus.add_listener(ctl.as_listener());
  // After the controller: pick up the cost of each evaluation it just ran.
  bus.add_listener(std::make_shared<ObserverListener>([&](const Event& ev) {
    const long e = ctl.evaluations();
    std::lock_guard lock(mu);
    finished += ev.when == When::kAfter && ev.where == Where::kExecute;
    if (!sampling || e == seen) return;
    seen = e;
    const double cost = ctl.last_evaluation_cost();
    const long live = std::max(1L, n - finished);
    cell.eval_us.push_back(cost * 1e6);
    cell.live.push_back(static_cast<double>(live));
    cell.ns_per_live.push_back(cost * 1e9 / static_cast<double>(live));
  }));

  for (int r = -1; r < measured_runs; ++r) {  // r = -1: warm-up
    ctl.arm(goal, kMaxLp);
    {
      std::lock_guard lock(mu);
      seen = 0;
      finished = 0;
      sampling = r >= 0;
    }
    const double t0 = default_clock().now();
    skel.input(n, engine).get();
    const double t1 = default_clock().now();
    pool.wait_idle();
    ctl.disarm();
    if (r < 0) continue;
    cell.evaluations += ctl.evaluations();
    cell.met += t1 - t0 <= goal;
    cell.lp_s += pool.lp_history().time_weighted_mean(t0, t1) * (t1 - t0);
  }
  std::lock_guard lock(mu);
  sampling = false;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::vector<int> widths = {64, 256, 1024, 4096, 8192};
  std::vector<double> grains = {50e-6, 0.5e-3, 5e-3};
  if (smoke) {
    widths = {64, 256, 1024};
    grains = {50e-6, 0.5e-3};
  }
  std::printf("{\"num_cpus\": %u, \"max_lp\": %d, \"cells\": [",
              std::thread::hardware_concurrency(), kMaxLp);
  bool first = true;
  for (const double grain : grains) {
    for (const int n : widths) {
      // About a second of measured work per cell, 1 to 8 runs.
      const double run_s = n * grain / kMaxLp;
      const int runs = std::clamp(static_cast<int>(1.0 / run_s), 1, 8);
      const Cell c = run_cell(n, grain, runs);
      std::printf(
          "%s\n  {\"n\": %d, \"grain_ms\": %.3f, \"runs\": %d, \"evaluations_per_run\": "
          "%.1f, \"eval_us_p50\": %.1f, \"eval_us_p99\": %.1f, \"live_p50\": %.0f, "
          "\"ns_per_live_p50\": %.0f, \"goal_met\": %.2f, \"lp_s_per_run\": %.4f}",
          first ? "" : ",", c.n, c.grain * 1e3, c.runs,
          static_cast<double>(c.evaluations) / c.runs, quantile(c.eval_us, 0.5),
          quantile(c.eval_us, 0.99), quantile(c.live, 0.5),
          quantile(c.ns_per_live, 0.5), static_cast<double>(c.met) / c.runs,
          c.lp_s / c.runs);
      std::fflush(stdout);
      first = false;
    }
  }
  std::printf("\n]}\n");
  return 0;
}
