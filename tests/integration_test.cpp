// End-to-end tests: real engine + events + trackers + controller, including
// miniature versions of the paper's §5 scenarios (scaled down for CI).

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "adg/best_effort.hpp"
#include "workload/wordcount.hpp"

namespace askel {
namespace {

/// Tiny paper profile: sequential WCT ≈ 0.30 s instead of 12.5 s.
PaperTimings tiny_timings() {
  PaperTimings t;
  t.scale = 0.024;
  return t;
}

ScenarioConfig tiny_scenario(double goal_paper_seconds) {
  ScenarioConfig cfg;
  cfg.timings = tiny_timings();
  cfg.corpus.num_tweets = 600;
  cfg.wct_goal = goal_paper_seconds;
  cfg.max_lp = 24;
  return cfg;
}

TEST(TrackedRun, SnapshotAfterCompletionIsAllDoneAndBeEqualsHistory) {
  ResizableThreadPool pool(2, 4);
  EventBus bus;
  EstimateRegistry reg(0.5);
  TrackerSet trackers(reg);
  bus.add_listener(trackers.as_listener());
  Engine engine(pool, bus);

  auto fs = split_muscle<int, int>("fs", [](int n) {
    std::vector<int> v(n);
    std::iota(v.begin(), v.end(), 0);
    return v;
  });
  auto fe = execute_muscle<int, int>("fe", [](int x) {
    simulate_work(0.002);
    return x * x;
  });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int> v) {
    return std::accumulate(v.begin(), v.end(), 0);
  });
  auto skel = Map(fs, Seq(fe), fm);
  EXPECT_EQ(skel.input(5, engine).get(), 30);

  EXPECT_TRUE(trackers.root_finished());
  const TimePoint now = default_clock().now();
  const AdgSnapshot g = trackers.snapshot(now);
  EXPECT_TRUE(g.validate().empty()) << g.validate();
  EXPECT_EQ(g.size(), 7u);  // split + 5 fe + merge
  EXPECT_EQ(g.count(ActivityState::kDone), 7u);
  // For an all-done snapshot the best-effort WCT is the actual end time.
  EXPECT_LE(best_effort(g).wct, now);
  // Estimates were learned for all three muscles.
  EXPECT_TRUE(reg.t(fs.m->id()).has_value());
  EXPECT_TRUE(reg.t(fe.m->id()).has_value());
  EXPECT_TRUE(reg.t(fm.m->id()).has_value());
  EXPECT_NEAR(*reg.cardinality(fs.m->id()), 5.0, 1e-9);
}

TEST(TrackedRun, MidRunSnapshotsStayTopologicallyValid) {
  ResizableThreadPool pool(2, 4);
  EventBus bus;
  EstimateRegistry reg(0.5);
  TrackerSet trackers(reg);
  bus.add_listener(trackers.as_listener());
  Engine engine(pool, bus);

  auto fs = split_muscle<int, int>("fs", [](int n) {
    return std::vector<int>(static_cast<std::size_t>(n), 3);
  });
  auto fe = execute_muscle<int, int>("fe", [](int x) {
    simulate_work(0.005);
    return x;
  });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int> v) {
    return static_cast<int>(v.size());
  });
  auto skel = Map(fs, Seq(fe), fm);
  Future<int> fut = skel.input(8, engine);
  // Hammer snapshots while the run progresses.
  for (int k = 0; k < 50; ++k) {
    const AdgSnapshot g = trackers.snapshot(default_clock().now());
    EXPECT_TRUE(g.validate().empty()) << g.validate();
  }
  EXPECT_EQ(fut.get(), 8);
}

TEST(Controller, DisarmedControllerNeverActs) {
  ScenarioConfig cfg = tiny_scenario(1000.0);  // absurdly generous goal
  const ScenarioResult res = run_wordcount_scenario(cfg);
  // Generous goal → the only admissible actions are decreases, and LP already
  // starts at 1, so no action at all.
  EXPECT_TRUE(res.actions.empty());
  EXPECT_EQ(res.final_lp, 1);
  EXPECT_EQ(res.counts, res.expected);
}

TEST(Controller, GoalWellAboveSequentialWctNeverRaisesLp) {
  // Paper: "any goal greater than 12.5 secs won't produce the necessity of
  // an LP increase". A cold-started estimator conflates the outer (6.4 s)
  // and inner (0.91 s) costs of the SHARED fs and overestimates remaining
  // work ≈3×, so the paper's boundary only binds the controller once the
  // goal clears that overestimate too.
  ScenarioConfig cfg = tiny_scenario(40.0);
  const ScenarioResult res = run_wordcount_scenario(cfg);
  for (const auto& a : res.actions) EXPECT_LT(a.to_lp, a.from_lp + 1);
  EXPECT_EQ(res.peak_busy, 1);
  EXPECT_EQ(res.counts, res.expected);
}


TEST(Controller, TightGoalRaisesLpAndBeatsSequentialTime) {
  ScenarioConfig cfg = tiny_scenario(9.5);  // the paper's scenario-1 goal
  const ScenarioResult res = run_wordcount_scenario(cfg);
  EXPECT_EQ(res.counts, res.expected);
  EXPECT_GT(res.peak_busy, 1);
  ASSERT_FALSE(res.actions.empty());
  // First adaptation can only happen once every muscle has run once: that is
  // after the first inner merge, i.e. after the outer split completed.
  EXPECT_GT(res.actions.front().t, cfg.timings.scaled_outer_split());
  // The run must beat the sequential time by a clear margin.
  EXPECT_LT(res.wct, cfg.timings.sequential_wct() * 0.95);
}

TEST(Controller, InitializationEnablesEarlierAdaptation) {
  // Paper scenario 2: with initialized estimates the first LP increase comes
  // right after the outer split (6.4 s scaled), before any merge has run.
  ScenarioConfig cfg = tiny_scenario(9.5);
  const ScenarioResult first = run_wordcount_scenario(cfg);
  ASSERT_FALSE(first.actions.empty());

  const ScenarioResult second = run_wordcount_scenario(cfg, &first.final_estimates);
  ASSERT_FALSE(second.actions.empty());
  // The initialized run adapts strictly earlier than the cold run.
  EXPECT_LT(second.actions.front().t, first.actions.front().t);
  // And no later than shortly after the outer split ends (the first event).
  EXPECT_LT(second.actions.front().t, cfg.timings.scaled_outer_split() * 1.5);
  EXPECT_EQ(second.counts, second.expected);
}

namespace {

/// Time-weighted mean of the busy-thread step function over the whole run.
/// This is the robust rendering of the paper's Fig. 5 vs Fig. 7 comparison:
/// a looser goal consumes less parallelism on average (momentary end-of-run
/// spikes from a near-deadline re-plan don't dominate it).
double mean_busy(const ScenarioResult& r) {
  if (r.busy_series.empty() || r.wct <= 0.0) return 0.0;
  double acc = 0.0, prev_t = 0.0, cur = 0.0;
  for (const Sample& s : r.busy_series) {
    acc += cur * (s.t - prev_t);
    prev_t = s.t;
    cur = s.value;
  }
  acc += cur * (r.wct - prev_t);
  return acc / r.wct;
}

}  // namespace

TEST(Controller, LooserGoalUsesFewerThreadsOnAverage) {
  // Paper scenario 3 vs scenario 1: the 10.5 s goal allocates less
  // parallelism than the 9.5 s goal (paper peaks: 10 vs 17 threads).
  ScenarioConfig tight = tiny_scenario(9.0);
  ScenarioConfig loose = tiny_scenario(11.5);
  const ScenarioResult t = run_wordcount_scenario(tight);
  const ScenarioResult l = run_wordcount_scenario(loose);
  EXPECT_LE(mean_busy(l), mean_busy(t) * 1.15 + 0.25);
  EXPECT_EQ(t.counts, t.expected);
  EXPECT_EQ(l.counts, l.expected);
}

TEST(Controller, MaxLpGoalCapsAllocation) {
  ScenarioConfig cfg = tiny_scenario(8.5);
  cfg.max_lp = 3;
  const ScenarioResult res = run_wordcount_scenario(cfg);
  for (const auto& a : res.actions) EXPECT_LE(a.to_lp, 3);
  EXPECT_LE(res.peak_busy, 3);
  EXPECT_EQ(res.counts, res.expected);
}

TEST(Controller, PerDepthEstimationSeparatesSharedSplitLevels) {
  // The context-sensitive extension: after a run, the shared fs keeps
  // distinct per-depth durations (≈6.4 s vs ≈0.91 s paper-scale) while the
  // aggregate estimate sits in between — the conflation the paper's §5
  // analysis works around.
  ScenarioConfig cfg = tiny_scenario(9.5);
  cfg.scope = EstimationScope::kPerDepth;
  const ScenarioResult res = run_wordcount_scenario(cfg);
  EXPECT_EQ(res.counts, res.expected);
  const auto& named = res.final_estimates;
  ASSERT_TRUE(named.count("fs@0"));
  ASSERT_TRUE(named.count("fs@1"));
  const double outer = *named.at("fs@0").t;
  const double inner = *named.at("fs@1").t;
  EXPECT_GT(outer, inner * 4.0);  // paper ratio ≈ 7×
  const double scale = cfg.timings.scale;
  EXPECT_NEAR(outer, 6.4 * scale, 6.4 * scale * 0.5);
  EXPECT_NEAR(inner, 0.914 * scale, 0.914 * scale * 0.9);
}

TEST(Controller, PerDepthScenarioMeetsGoalWithoutRamping) {
#ifdef ASKEL_TSAN
  // The assertion below is about *wall-clock* controller behavior: muscle
  // durations must track their estimates. ThreadSanitizer's ~10x
  // nondeterministic slowdown inflates framework time between the timed
  // sleeps, so estimate drift triggers ramping that never happens in real
  // builds. Race coverage for these code paths lives in stress_test.cpp.
  GTEST_SKIP() << "wall-clock assertion unreliable under TSan";
#endif
  // With accurate per-depth estimates the controller computes exact minimal
  // allocations instead of blind ramping (see bench/ablation_context).
  ScenarioConfig cfg = tiny_scenario(9.5);
  cfg.scope = EstimationScope::kPerDepth;
  const ScenarioResult warm = run_wordcount_scenario(cfg);
  const ScenarioResult res = run_wordcount_scenario(cfg, &warm.final_estimates);
  EXPECT_EQ(res.counts, res.expected);
  // All increases must be goal-derived, not unachievable-ramps. On failure,
  // print what the decision saw: its best-effort and current-LP completion
  // estimates against the goal (seconds from the run's start), and the
  // estimates the run was initialised with and finished with.
  auto estimates = [](const NamedEstimates& named) {
    std::ostringstream out;
    for (const auto& [name, e] : named) {
      out << " " << name << "{t=" << e.t.value_or(-1.0)
          << " card=" << e.card.value_or(-1.0) << "}";
    }
    return out.str();
  };
  for (const auto& a : res.actions) {
    EXPECT_NE(a.reason, DecisionReason::kUnachievableRamp)
        << "t=" << a.t << " " << a.from_lp << "->" << a.to_lp
        << " best_effort_wct=" << a.best_effort_wct - res.start
        << " current_lp_wct=" << a.current_lp_wct - res.start
        << " goal=" << res.goal
        << " run_wct_s=" << res.wct << "\n  initial:" << estimates(warm.final_estimates)
        << "\n  final:" << estimates(res.final_estimates);
  }
}

TEST(Controller, EvaluateNowWorksWithoutEvents) {
  ResizableThreadPool pool(1, 4);
  EstimateRegistry reg(0.5);
  TrackerSet trackers(reg);
  AutonomicController ctl(pool, trackers);
  ctl.arm(1.0);
  const Decision d = ctl.evaluate_now();
  EXPECT_EQ(d.reason, DecisionReason::kEmptySnapshot);
  EXPECT_EQ(ctl.evaluations(), 1);
  EXPECT_TRUE(ctl.actions().empty());
}

TEST(Controller, ArmAndDisarmLifecycle) {
  ResizableThreadPool pool(1, 4);
  EstimateRegistry reg(0.5);
  TrackerSet trackers(reg);
  AutonomicController ctl(pool, trackers);
  EXPECT_FALSE(ctl.armed());
  ctl.arm(5.0);
  EXPECT_TRUE(ctl.armed());
  EXPECT_GT(ctl.goal_abs(), 0.0);
  ctl.disarm();
  EXPECT_FALSE(ctl.armed());
}

}  // namespace
}  // namespace askel
