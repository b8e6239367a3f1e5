#pragma once
// The per-layer metrics of the traced run. Every workload reports every name
// (0 where its layer is not on the workload's path), so a layer that should
// stay idle on a workload visibly does.

#include <vector>

#include "common.hpp"
#include "hooks.hpp"
#include "trace.hpp"

namespace autobench {

/// Readings a workload takes from layer APIs (not from spans). Counts are
/// per traced run unless the name says otherwise.
struct LayerInputs {
  int traced_runs = 0;
  // adg: re-invocations on captured snapshots (see reinvoke_adg)
  double adg_activities = 0.0;
  double limited_lp_us = 0.0;
  double best_effort_us = 0.0;
  // autonomic
  double evaluations = 0.0;
  double decide_us = 0.0;
  long decide_n = 0;  // re-invocations behind decide_us
  double overhead_vs_fixed_lp = 0.0;
  double lp_actions = 0.0;
  double goal_met_ratio = 0.0;
  double actions_retained = 0.0;
  double peak_grant = 0.0;
  double budget_violations = 0.0;
  // sm
  double tracked_instances = 0.0;
  // runtime
  double peak_busy = 0.0;
  double busy_s = 0.0;
  double lp_changes = 0.0;
  // runtime.remote
  double leases = 0.0;
  double losses_recovered = 0.0;
  double batch_flushes = 0.0;
  double tasks_batched = 0.0;
  double join_ms = 0.0;
  // harness
  double gen_lag_ms_p99 = 0.0;
  double tracing_overhead = 0.0;
};

struct AdgTimings {
  double activities = 0.0;     // median snapshot size
  double limited_lp_us = 0.0;  // median limited_lp(g, lp) time
  double best_effort_us = 0.0;
  double decide_us = 0.0;
  long n = 0;  // snapshots re-invoked on
};
/// Re-invoke best_effort, limited_lp and decide on each captured snapshot
/// (three times each) and report medians.
AdgTimings reinvoke_adg(const std::vector<CapturedSnapshot>& caps,
                        const askel::DecisionConfig& cfg);

/// Append all per-layer metrics to `res`, from the traced window's spans and
/// the workload's readings.
void add_layer_metrics(Result& res, const std::vector<Span>& spans,
                       const LayerInputs& in);

/// Busy-thread integral of the pool's gauge over [t0, t1] (thread·s), in
/// default-clock time like every run timestamp of the harness.
double busy_integral(const askel::ResizableThreadPool& pool, double t0, double t1);

/// Pool LP-history integral over [t0, t1] in default-clock time.
double lp_integral(const askel::ResizableThreadPool& pool, double t0, double t1,
                   long* changes = nullptr);

}  // namespace autobench
