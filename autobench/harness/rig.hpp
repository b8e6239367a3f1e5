#pragma once
// The autonomic runtime of the WCT workloads (wordcount, wide_map): pool,
// bus, estimate registry, TrackerSet and an unbound controller, wired the
// way the library documents (tracker listener first, then the controller),
// plus the harness's traced stand-in for those two listeners.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "askel.hpp"
#include "common.hpp"
#include "hooks.hpp"
#include "layers.hpp"
#include "trace.hpp"

namespace autobench {

class AutonomicRig {
 public:
  AutonomicRig(int initial_lp, int max_lp, askel::ControllerConfig cfg = {})
      : max_lp_(max_lp),
        pool_(initial_lp, max_lp),
        trackers_(reg_),
        ctl_(pool_, trackers_, &clock_, cfg),
        engine_(pool_, bus_),
        layer_(std::make_shared<LayerListener>(trackers_, reg_, &ctl_, pool_, max_lp)) {
    listen(Listeners::kPlain);
  }
  ~AutonomicRig() {
    ctl_.disarm();
    pool_.wait_idle();
  }
  AutonomicRig(const AutonomicRig&) = delete;
  AutonomicRig& operator=(const AutonomicRig&) = delete;

  /// kPlain: the library's own listeners; kTraced: the harness's timed
  /// stand-in; kNone: no autonomic listener at all (fixed-LP reference).
  enum class Listeners { kNone, kPlain, kTraced };
  void listen(Listeners mode) {
    for (const std::uint64_t id : ids_) bus_.remove_listener(id);
    ids_.clear();
    if (mode == Listeners::kPlain) {
      ids_.push_back(bus_.add_listener(trackers_.as_listener()));
      ids_.push_back(bus_.add_listener(ctl_.as_listener()));
    } else if (mode == Listeners::kTraced) {
      ids_.push_back(bus_.add_listener(layer_));
    }
  }

  /// One run of `skel` on `input`. With `goal` > 0 the controller is armed
  /// for the run; `check` validates the output (it returns an error text, or
  /// an empty string when the output is right).
  template <class P, class R, class Check>
  RunRecord run(Result& res, const askel::Skel<P, R>& skel, P input, double goal,
                Check&& check, bool* goal_met = nullptr) {
    if (goal > 0.0) {
      ctl_.arm(goal, max_lp_);
      layer_->armed(ctl_.goal_abs());
    }
    std::string error;
    const double c0 = process_cpu();
    const double t0 = askel::default_clock().now();
    double t1 = t0;
    {
      Scope span(SpanKind::kRun);
      try {
        error = check(skel.input(std::move(input), engine_).get());
      } catch (const std::exception& e) {
        error = std::string("exception: ") + e.what();
      }
      t1 = askel::default_clock().now();
      // The listeners of the run's last events may still be running: they
      // finish inside the run's span and are charged to its CPU.
      pool_.wait_idle();
    }
    const double c1 = process_cpu();
    if (goal > 0.0) {
      ctl_.disarm();
      evaluations += ctl_.evaluations();
      actions += static_cast<long>(ctl_.actions().size());
      if (goal_met != nullptr) *goal_met = t1 - t0 <= goal;
    }
    res.check(error.empty(), error);
    long changes = 0;
    const RunRecord r{t1 - t0, c1 - c0, lp_integral(pool_, t0, t1, &changes), 1};
    busy_s += busy_integral(pool_, t0, t1);
    lp_changes += changes;
    return r;
  }

  /// Forget every estimate and tracked instance and drop to LP 1: the next
  /// run starts cold, like a freshly built runtime.
  void cold_start() {
    reg_.clear();
    trackers_.reset();
    pool_.set_target_lp(1);
  }

  void reset_counters() {
    evaluations = actions = lp_changes = 0;
    busy_s = 0.0;
  }

  askel::ResizableThreadPool& pool() { return pool_; }
  askel::TrackerSet& trackers() { return trackers_; }
  askel::AutonomicController& ctl() { return ctl_; }
  LayerListener& layer() { return *layer_; }

  // Accumulated over the runs since reset_counters().
  long evaluations = 0;
  long actions = 0;
  long lp_changes = 0;
  double busy_s = 0.0;

 private:
  const int max_lp_;
  askel::ResizableThreadPool pool_;
  askel::EventBus bus_;
  askel::EstimateRegistry reg_;
  askel::TrackerSet trackers_;
  EvalClock clock_;
  askel::AutonomicController ctl_;
  askel::Engine engine_;
  std::shared_ptr<LayerListener> layer_;
  std::vector<std::uint64_t> ids_;
};

inline std::vector<double> walls(const RunSet& set) {
  std::vector<double> w;
  for (const RunRecord& r : set.runs) w.push_back(r.wall);
  return w;
}

/// Run `one()` (returning a RunRecord) until `seconds` have passed and at
/// least `fixed_runs` runs are done. Peak RSS, and the size of `trackers` if
/// given, are read right after run number `fixed_runs`.
template <class Fn>
RunSet run_for(double seconds, int fixed_runs, Fn&& one,
               const askel::TrackerSet* trackers = nullptr) {
  RunSet set;
  set.fixed_runs = fixed_runs;
  const double deadline = wall_now() + seconds;
  do {
    set.runs.push_back(one());
    if (static_cast<int>(set.runs.size()) == fixed_runs) {
      set.rss_mb = peak_rss_mb();
      if (trackers != nullptr) {
        set.tracked_instances = static_cast<long>(trackers->tracked_instances());
      }
    }
  } while (static_cast<int>(set.runs.size()) < fixed_runs || wall_now() < deadline);
  return set;
}

/// Per-layer readings common to both WCT workloads, from the rig's counters
/// over `traced` runs; sm.tracked_instances is the fixed-count reading of
/// the `plain` (untraced) window.
inline LayerInputs wct_layer_inputs(AutonomicRig& rig, const RunSet& plain,
                                    const RunSet& fixed, const RunSet& traced,
                                    long plain_met) {
  const double n = static_cast<double>(traced.runs.size());
  const AdgTimings adg = reinvoke_adg(rig.layer().take_captures(), askel::DecisionConfig{});
  LayerInputs in;
  in.traced_runs = static_cast<int>(traced.runs.size());
  in.adg_activities = adg.activities;
  in.limited_lp_us = adg.limited_lp_us;
  in.best_effort_us = adg.best_effort_us;
  in.decide_us = adg.decide_us;
  in.decide_n = adg.n;
  in.evaluations = static_cast<double>(rig.evaluations) / n;
  in.overhead_vs_fixed_lp = median(walls(plain)) / median(walls(fixed));
  in.lp_actions = static_cast<double>(rig.actions) / n;
  in.goal_met_ratio =
      static_cast<double>(plain_met) / static_cast<double>(plain.runs.size());
  in.actions_retained = static_cast<double>(rig.ctl().actions().size());
  in.tracked_instances = static_cast<double>(plain.tracked_instances);
  in.peak_busy = rig.pool().gauge().peak();
  in.busy_s = rig.busy_s / n;
  in.lp_changes = static_cast<double>(rig.lp_changes) / n;
  in.tracing_overhead = median(walls(traced)) / median(walls(plain));
  return in;
}

}  // namespace autobench
