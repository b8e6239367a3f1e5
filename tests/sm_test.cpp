// Tests for sm/: per-skeleton state machines (paper Figures 3 and 4), the
// tracker set, and the full virtual-time replay of the paper's §4 example.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <mutex>
#include <numeric>

#include "adg/best_effort.hpp"
#include "adg/limited_lp.hpp"
#include "adg/timeline.hpp"
#include "autonomic/controller.hpp"
#include "autonomic/decision.hpp"
#include "events/listener.hpp"
#include "skel/typed.hpp"
#include "workload/paper_example.hpp"
#include "workload/wordcount.hpp"

namespace askel {
namespace {

// Helper to synthesize events against real nodes.
Event ev(const SkelNode* node, std::int64_t exec, std::int64_t parent, When when,
         Where where, int muscle, double t, int card = -1, bool cond = false) {
  Event e;
  e.when = when;
  e.where = where;
  e.exec_id = exec;
  e.parent_exec_id = parent;
  e.node = node;
  e.muscle_id = muscle;
  e.timestamp = t;
  e.cardinality = card;
  e.condition_result = cond;
  return e;
}

TEST(SeqSm, Figure3UpdatesDurationEstimate) {
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto skel = Seq(fe);
  const SkelNode* n = skel.node().get();
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);

  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kExecute, fe.m->id(), 10.0));
  EXPECT_FALSE(reg.t(fe.m->id()).has_value());
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kExecute, fe.m->id(), 14.0));
  EXPECT_DOUBLE_EQ(*reg.t(fe.m->id()), 4.0);
  EXPECT_TRUE(ts.root_finished());

  // Second instance blends with the EWMA: 0.5*8 + 0.5*4 = 6.
  ts.on_event(ev(n, 2, -1, When::kBefore, Where::kExecute, fe.m->id(), 20.0));
  ts.on_event(ev(n, 2, -1, When::kAfter, Where::kExecute, fe.m->id(), 28.0));
  EXPECT_DOUBLE_EQ(*reg.t(fe.m->id()), 6.0);
}

TEST(SeqSm, IndexGuardKeepsInstancesSeparate) {
  // Two interleaved seq instances (the [idx == i] guard of Figure 3): the
  // after of instance B must not close instance A's record.
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto skel = Seq(fe);
  const SkelNode* n = skel.node().get();
  EstimateRegistry reg(1.0);
  TrackerSet ts(reg);
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kExecute, fe.m->id(), 0.0));
  ts.on_event(ev(n, 2, -1, When::kBefore, Where::kExecute, fe.m->id(), 5.0));
  ts.on_event(ev(n, 2, -1, When::kAfter, Where::kExecute, fe.m->id(), 6.0));
  EXPECT_DOUBLE_EQ(*reg.t(fe.m->id()), 1.0);  // only instance 2 closed
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kExecute, fe.m->id(), 10.0));
  EXPECT_DOUBLE_EQ(*reg.t(fe.m->id()), 10.0);
}

TEST(MapSm, Figure4UpdatesSplitCardinalityAndMergeEstimates) {
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{}; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });
  auto skel = Map(fs, Seq(fe), fm);
  const SkelNode* n = skel.node().get();
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);

  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSkeleton, -1, 0.0));
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSplit, fs.m->id(), 0.0));
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kSplit, fs.m->id(), 10.0, 3));
  EXPECT_DOUBLE_EQ(*reg.t(fs.m->id()), 10.0);
  EXPECT_DOUBLE_EQ(*reg.cardinality(fs.m->id()), 3.0);
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kMerge, fm.m->id(), 60.0));
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kMerge, fm.m->id(), 65.0));
  EXPECT_DOUBLE_EQ(*reg.t(fm.m->id()), 5.0);
  EXPECT_FALSE(ts.root_finished());
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kSkeleton, -1, 65.0));
  EXPECT_TRUE(ts.root_finished());
}

TEST(WhileSm, CountsTrueResultsAsCardinality) {
  auto fc = condition_muscle<int>("fc", [](const int&) { return false; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto skel = While(fc, Seq(fe));
  const SkelNode* n = skel.node().get();
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);

  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSkeleton, -1, 0.0));
  double t = 0.0;
  for (const bool result : {true, true, true, false}) {
    ts.on_event(ev(n, 1, -1, When::kBefore, Where::kCondition, fc.m->id(), t));
    ts.on_event(
        ev(n, 1, -1, When::kAfter, Where::kCondition, fc.m->id(), t + 1, -1, result));
    t += 10;
  }
  EXPECT_DOUBLE_EQ(*reg.cardinality(fc.m->id()), 3.0);
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kSkeleton, -1, t));
  EXPECT_TRUE(ts.root_finished());
}

TEST(DacSm, RootObservesDivideDepth) {
  auto fc = condition_muscle<int>("fc", [](const int&) { return false; });
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{}; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });
  auto skel = DaC(fc, fs, Seq(fe), fm);
  const SkelNode* n = skel.node().get();
  const SkelNode* leaf = n->children()[0];
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);

  // Root (exec 1) divides into two leaves (exec 2, 3): depth 1.
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSkeleton, -1, 0));
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kCondition, fc.m->id(), 0));
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kCondition, fc.m->id(), 1, -1, true));
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSplit, fs.m->id(), 1));
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kSplit, fs.m->id(), 2, 2));
  for (std::int64_t child = 2; child <= 3; ++child) {
    ts.on_event(ev(n, child, 1, When::kBefore, Where::kSkeleton, -1, 2));
    ts.on_event(ev(n, child, 1, When::kBefore, Where::kCondition, fc.m->id(), 2));
    ts.on_event(
        ev(n, child, 1, When::kAfter, Where::kCondition, fc.m->id(), 3, -1, false));
    const std::int64_t seq_exec = 10 + child;
    ts.on_event(ev(leaf, seq_exec, child, When::kBefore, Where::kExecute,
                   fe.m->id(), 3));
    ts.on_event(ev(leaf, seq_exec, child, When::kAfter, Where::kExecute,
                   fe.m->id(), 4));
    ts.on_event(ev(n, child, 1, When::kAfter, Where::kSkeleton, -1, 4));
  }
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kMerge, fm.m->id(), 5));
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kMerge, fm.m->id(), 6));
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kSkeleton, -1, 6));
  EXPECT_DOUBLE_EQ(*reg.cardinality(fc.m->id()), 1.0);  // one divide level
  EXPECT_TRUE(ts.root_finished());
}

TEST(ForkSm, TracksSplitAndMergeLikeMap) {
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{}; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fe2 = execute_muscle<int, int>("fe2", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });
  auto skel = Fork(fs, {Seq(fe), Seq(fe2)}, fm);
  const SkelNode* n = skel.node().get();
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);

  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSkeleton, -1, 0.0));
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSplit, fs.m->id(), 0.0));
  ts.on_event(ev(n, 1, -1, When::kAfter, Where::kSplit, fs.m->id(), 4.0, 4));
  EXPECT_DOUBLE_EQ(*reg.cardinality(fs.m->id()), 4.0);
  // Snapshot with no started children: 4 expected elements cycling over the
  // two branches (fe, fe2, fe, fe2) plus the pending merge.
  reg.init_duration(fe.m->id(), 1.0);
  reg.init_duration(fe2.m->id(), 2.0);
  reg.init_duration(fm.m->id(), 0.5);
  const AdgSnapshot g = ts.snapshot(4.0);
  ASSERT_TRUE(g.validate().empty()) << g.validate();
  EXPECT_EQ(g.size(), 6u);  // split + 4 elements + merge
  EXPECT_TRUE(g.complete_estimates);
  int fe_count = 0, fe2_count = 0;
  for (const Activity& a : g.activities) {
    fe_count += a.muscle_id == fe.m->id();
    fe2_count += a.muscle_id == fe2.m->id();
  }
  EXPECT_EQ(fe_count, 2);
  EXPECT_EQ(fe2_count, 2);
}

TEST(ForSm, RemainingIterationsAreExpanded) {
  auto feM = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto body = Seq(feM);
  auto skel = For(3, body);
  const SkelNode* n = skel.node().get();
  const SkelNode* seq = n->children()[0];
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);

  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSkeleton, -1, 0.0));
  // First body instance completes: 0..2.
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kNested, -1, 0.0));
  ts.on_event(ev(seq, 2, 1, When::kBefore, Where::kExecute, feM.m->id(), 0.0));
  ts.on_event(ev(seq, 2, 1, When::kAfter, Where::kExecute, feM.m->id(), 2.0));
  const AdgSnapshot g = ts.snapshot(2.0);
  // One done body + 2 expected bodies, chained.
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.count(ActivityState::kDone), 1u);
  EXPECT_EQ(g.count(ActivityState::kPending), 2u);
  EXPECT_EQ(g.activities[1].preds, std::vector<int>{0});
  EXPECT_EQ(g.activities[2].preds, std::vector<int>{1});
}

TEST(PipeSm, SecondStageExpandsWhileFirstRuns) {
  auto f1 = execute_muscle<int, int>("f1", [](int x) { return x; });
  auto f2 = execute_muscle<int, int>("f2", [](int x) { return x; });
  auto skel = Pipe(Seq(f1), Seq(f2));
  const SkelNode* n = skel.node().get();
  const SkelNode* s1 = n->children()[0];
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);
  reg.init_duration(f1.m->id(), 3.0);
  reg.init_duration(f2.m->id(), 4.0);

  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSkeleton, -1, 0.0));
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kNested, -1, 0.0));
  ts.on_event(ev(s1, 2, 1, When::kBefore, Where::kExecute, f1.m->id(), 1.0));
  const AdgSnapshot g = ts.snapshot(2.0);
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g.activities[0].state, ActivityState::kRunning);
  EXPECT_EQ(g.activities[1].state, ActivityState::kPending);
  EXPECT_DOUBLE_EQ(g.activities[1].est_duration, 4.0);
  EXPECT_EQ(g.activities[1].preds, std::vector<int>{0});
}

TEST(FarmSm, UnstartedChildIsExpanded) {
  auto feM = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto skel = Farm(Seq(feM));
  const SkelNode* n = skel.node().get();
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);
  reg.init_duration(feM.m->id(), 2.5);
  ts.on_event(ev(n, 1, -1, When::kBefore, Where::kSkeleton, -1, 0.0));
  const AdgSnapshot g = ts.snapshot(0.0);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.activities[0].state, ActivityState::kPending);
  EXPECT_DOUBLE_EQ(g.activities[0].est_duration, 2.5);
}

TEST(TrackerSet, DepthPropagatesThroughTheDynamicTree) {
  auto fs = split_muscle<int, int>("fs", [](int) { return std::vector<int>{}; });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });
  auto inner = Map(fs, Seq(fe), fm);
  auto outer = Map(fs, inner, fm);
  const SkelNode* o = outer.node().get();
  const SkelNode* i = o->children()[0];
  const SkelNode* s = i->children()[0];
  EstimateRegistry reg(0.5, EstimationScope::kPerDepth);
  TrackerSet ts(reg);
  ts.on_event(ev(o, 1, -1, When::kBefore, Where::kSkeleton, -1, 0.0));
  ts.on_event(ev(i, 2, 1, When::kBefore, Where::kSkeleton, -1, 0.0));
  ts.on_event(ev(s, 3, 2, When::kBefore, Where::kExecute, fe.m->id(), 0.0));
  ts.on_event(ev(s, 3, 2, When::kAfter, Where::kExecute, fe.m->id(), 1.0));
  // The seq sits at depth 2; its observation lands on (fe, depth 2).
  EXPECT_TRUE(reg.t(fe.m->id(), 2).has_value());
  EXPECT_DOUBLE_EQ(*reg.t(fe.m->id(), 2), 1.0);
}

TEST(TrackerSet, IgnoresEventsWithoutInstanceOrNode) {
  EstimateRegistry reg;
  TrackerSet ts(reg);
  Event e;  // exec_id -1, node nullptr
  ts.on_event(e);
  EXPECT_EQ(ts.tracked_instances(), 0u);
  EXPECT_EQ(ts.current_root(), nullptr);
  EXPECT_FALSE(ts.root_finished());
}

TEST(TrackerSet, EmptySnapshotBeforeAnyEvent) {
  EstimateRegistry reg;
  TrackerSet ts(reg);
  const AdgSnapshot g = ts.snapshot(0.0);
  EXPECT_EQ(g.size(), 0u);
}

TEST(TrackerSet, SnapshotNeverPrecedesAnIngestedEvent) {
  // A caller reads the clock (1.5), then an event stamped 2.0 reaches the
  // set before the snapshot does: the snapshot's instant must not precede
  // what it already observed.
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto skel = Seq(fe);
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);
  ts.on_event(ev(skel.node().get(), 1, -1, When::kBefore, Where::kExecute,
                 fe.m->id(), 1.0));
  ts.on_event(ev(skel.node().get(), 1, -1, When::kAfter, Where::kExecute,
                 fe.m->id(), 2.0));
  const AdgSnapshot g = ts.snapshot(1.5);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.validate(), "");
  EXPECT_DOUBLE_EQ(g.now, 2.0);
}

TEST(TrackerSet, ResetForgetsTrackersButKeepsEstimates) {
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto skel = Seq(fe);
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);
  ts.on_event(ev(skel.node().get(), 1, -1, When::kBefore, Where::kExecute,
                 fe.m->id(), 0.0));
  ts.on_event(ev(skel.node().get(), 1, -1, When::kAfter, Where::kExecute,
                 fe.m->id(), 2.0));
  ts.reset();
  EXPECT_EQ(ts.tracked_instances(), 0u);
  EXPECT_DOUBLE_EQ(*reg.t(fe.m->id()), 2.0);
}

// ---------------------------------------------------------------------------
// Full replay of the paper's §4 example (Figures 1 and 2).
// ---------------------------------------------------------------------------

TEST(PaperReplay, EstimatesMatchThePaperValuesAt70) {
  PaperExampleReplay r;
  r.replay_until(70.0);
  EXPECT_DOUBLE_EQ(*r.registry().t(r.skel().fs_id), 10.0);
  EXPECT_DOUBLE_EQ(*r.registry().t(r.skel().fe_id), 15.0);
  EXPECT_DOUBLE_EQ(*r.registry().t(r.skel().fm_id), 5.0);
  EXPECT_DOUBLE_EQ(*r.registry().cardinality(r.skel().fs_id), 3.0);
}

TEST(PaperReplay, SnapshotAt70HasTheFigure1Shape) {
  PaperExampleReplay r;
  r.replay_until(70.0);
  const AdgSnapshot g = r.snapshot(70.0);
  ASSERT_TRUE(g.validate().empty()) << g.validate();
  EXPECT_TRUE(g.complete_estimates);
  // Done: outer split, 2 inner splits, 6 fe, merge1 = 10.
  EXPECT_EQ(g.count(ActivityState::kDone), 10u);
  // Running: merge2 (started at 70) and split3 (started at 65).
  EXPECT_EQ(g.count(ActivityState::kRunning), 2u);
  // Pending: 3 expected fe, merge3, outer merge.
  EXPECT_EQ(g.count(ActivityState::kPending), 5u);
}

TEST(PaperReplay, SchedulesReproduceFigure1And2Numbers) {
  PaperExampleReplay r;
  r.replay_until(70.0);
  const AdgSnapshot g = r.snapshot(70.0);
  EXPECT_DOUBLE_EQ(best_effort(g).wct, 100.0);
  EXPECT_DOUBLE_EQ(limited_lp(g, 2).wct, 115.0);
  EXPECT_EQ(optimal_lp(g), 3);
}

TEST(PaperReplay, DecisionRaisesLpTo3ForGoal100) {
  // The paper's closing sentence of §4.
  PaperExampleReplay r;
  r.replay_until(70.0);
  const AdgSnapshot g = r.snapshot(70.0);
  const Decision d = decide(g, /*goal_abs=*/100.0, /*current_lp=*/2, /*max_lp=*/24);
  EXPECT_EQ(d.new_lp, 3);
  EXPECT_EQ(d.reason, DecisionReason::kIncreaseToGoal);
  EXPECT_DOUBLE_EQ(d.best_effort_wct, 100.0);
  EXPECT_DOUBLE_EQ(d.current_lp_wct, 115.0);
  EXPECT_EQ(d.optimal_lp, 3);
}

TEST(PaperReplay, EarlySnapshotIsIncompleteUntilFirstMergeRuns) {
  // "the system has to wait until all muscles have been executed at least
  //  once" — before the first merge, t(fm) is unknown.
  PaperExampleReplay r;
  r.replay_until(30.0);
  const AdgSnapshot g = r.snapshot(30.0);
  EXPECT_FALSE(g.complete_estimates);
}

TEST(PaperReplay, SnapshotBecomesCompleteExactlyAtFirstMerge) {
  PaperExampleReplay r;
  r.replay_until(69.0);
  EXPECT_FALSE(r.snapshot(69.0).complete_estimates);  // merge1 still running
  r.replay_until(70.0);
  EXPECT_TRUE(r.snapshot(70.0).complete_estimates);
}

TEST(PaperReplay, FullReplayFinishesWithAllDoneAtWct115) {
  PaperExampleReplay r;
  r.replay_until(PaperExampleReplay::kTotalWct);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.trackers().root_finished());
  const AdgSnapshot g = r.snapshot(115.0);
  EXPECT_EQ(g.count(ActivityState::kDone), g.size());
  EXPECT_DOUBLE_EQ(best_effort(g).wct, 115.0);
  EXPECT_DOUBLE_EQ(limited_lp(g, 1).wct, 115.0);  // all past: LP irrelevant
  // 1 outer split + 3×(split + 3 fe + merge) + outer merge = 17 activities.
  EXPECT_EQ(g.size(), 17u);
}

TEST(PaperReplay, MidRunSnapshotAt40HasConsistentSchedules) {
  PaperExampleReplay r;
  r.replay_until(40.0);
  const AdgSnapshot g = r.snapshot(40.0);
  ASSERT_TRUE(g.validate().empty()) << g.validate();
  // Limited-LP(k) is never better than best effort.
  const double be = best_effort(g).wct;
  for (int k = 1; k <= 4; ++k) EXPECT_GE(limited_lp(g, k).wct, be - 1e-9);
}

TEST(PaperReplay, ControllerClosesTheLoopDeterministically) {
  // Full MAPE loop on virtual time: replay the paper's event stream into a
  // TrackerSet + AutonomicController against a ManualClock and a real pool
  // (whose LP the controller sets). With the WCT goal of 100, the first
  // actionable evaluation — at the first merge, t=70 — must raise LP 2 → 3,
  // the paper's §4 closing statement.
  PaperExampleReplay r;
  ManualClock clock(0.0);
  ResizableThreadPool pool(2, 24, &clock);
  AutonomicController controller(pool, r.trackers(), &clock, ControllerConfig{});
  controller.arm(/*goal=*/100.0);

  // Drive replay and controller together; the controller sees the same
  // After-muscle cadence the bus would deliver.
  for (const double t : {10.0, 20.0, 35.0, 50.0, 65.0, 69.0}) {
    clock.set(t);
    r.replay_until(t);
    const Decision d = controller.evaluate_now();
    // Estimates incomplete until the first merge: no action possible.
    EXPECT_EQ(d.reason, DecisionReason::kIncompleteEstimates) << "t=" << t;
    EXPECT_EQ(pool.target_lp(), 2);
  }
  clock.set(70.0);
  r.replay_until(70.0);
  const Decision d = controller.evaluate_now();
  EXPECT_EQ(d.reason, DecisionReason::kIncreaseToGoal);
  EXPECT_EQ(d.new_lp, 3);
  EXPECT_EQ(pool.target_lp(), 3);
  ASSERT_EQ(controller.actions().size(), 1u);
  EXPECT_EQ(controller.actions()[0].from_lp, 2);
  EXPECT_EQ(controller.actions()[0].to_lp, 3);
}

TEST(PaperReplay, InitializedRegistryMakesEarlySnapshotsComplete) {
  // Scenario-2 mechanics: estimates from a previous run remove the warm-up.
  // Each replay builds a fresh skeleton (fresh muscle ids), so the transfer
  // goes through name-keyed estimates — exactly what a user restarting the
  // application would persist.
  PaperExampleReplay first;
  first.replay_until(115.0);
  const NamedEstimates exported =
      export_named_estimates(first.registry(), *first.skel().outer);

  PaperExampleReplay second;
  init_named_estimates(second.registry(), *second.skel().outer, exported);
  second.replay_until(10.0);  // only the outer split has finished
  const AdgSnapshot g = second.snapshot(10.0);
  EXPECT_TRUE(g.complete_estimates);
  // With everything known up front the best-effort estimate of the whole run
  // from t=10 is 10 + 10 + 15·(critical path 3 sequential fe) + 5 + 5 = wait —
  // structure: inner split 10, fe 15 (parallel ∞), merge 5, outer merge 5.
  EXPECT_DOUBLE_EQ(best_effort(g).wct, 45.0);
}

// ------------------------------------------- controller evaluation spacing --

/// Clock that advances a fixed step on every read. An evaluation reads the
/// controller's clock once when it starts and once when it ends, so each one
/// costs exactly one step, and every event that reaches the throttle reads
/// the clock once.
class StepClock final : public Clock {
 public:
  StepClock(TimePoint start, Duration step) : start_(start), step_(step) {}
  TimePoint now() const override {
    return start_ + step_ * static_cast<double>(++reads_);
  }
  long reads() const { return reads_.load(); }

 private:
  TimePoint start_;
  Duration step_;
  mutable std::atomic<long> reads_{0};
};

/// A power of two, so the spacing arithmetic on 70 + k·step is exact.
constexpr Duration kStep = 1.0 / 1024.0;

Event after_muscle(Where where = Where::kExecute) {
  Event e;
  e.when = When::kAfter;
  e.where = where;
  return e;
}

TEST(ControllerSpacing, NextEvaluationWaitsFiftyTimesTheLastOnesCost) {
  PaperExampleReplay r;
  r.replay_until(70.0);  // estimates complete: every evaluation is actionable
  ManualClock pool_clock(70.0);
  ResizableThreadPool pool(2, 24, &pool_clock);
  StepClock clock(70.0, kStep);
  AutonomicController ctl(pool, r.trackers(), &clock, ControllerConfig{});
  ASSERT_TRUE(ctl.arm(100.0));  // read 1
  ctl.on_event(after_muscle());  // reads 2 and 3: starts at 70+2s, costs s
  ASSERT_EQ(ctl.evaluations(), 1);
  ASSERT_EQ(clock.reads(), 3);
  ASSERT_EQ(ctl.actions().size(), 1u);  // LP 2 -> 3: not warming any more
  // Event k after it reads 70+(3+k)s, i.e. (1+k)s after that evaluation
  // started; min_interval is 0, so only the 50s duty-cycle floor holds it.
  for (int k = 1; k <= 48; ++k) {
    ctl.on_event(after_muscle());
    EXPECT_EQ(ctl.evaluations(), 1) << "event " << k << " is inside the floor";
  }
  ctl.on_event(after_muscle());  // k = 49: exactly 50s later
  EXPECT_EQ(ctl.evaluations(), 2);
}

TEST(ControllerSpacing, SloModeWaitsTenTimesTheLastOnesCost) {
  // SLO evaluations read a tail snapshot, not the ADG, so they keep the
  // floor of 10x their cost.
  EstimateRegistry reg;
  TrackerSet trackers(reg);
  ManualClock pool_clock(0.0);
  ResizableThreadPool pool(2, 8, &pool_clock);
  StepClock clock(0.0, kStep);
  ControllerConfig cfg;
  cfg.slo.min_observations = 1;
  AutonomicController ctl(pool, trackers, &clock, cfg);
  ASSERT_TRUE(ctl.arm_slo(/*tail_goal=*/0.05, /*max_lp=*/8));  // read 1
  ctl.record_latency(0.001);  // reads 2 and 3: starts at 2s, costs s
  ASSERT_EQ(ctl.evaluations(), 1);
  ASSERT_EQ(clock.reads(), 3);
  // Latency k after it reads (3+k)s, i.e. (1+k)s after that evaluation
  // started; min_interval is 0, so only the 10s duty-cycle floor holds it.
  for (int k = 1; k <= 8; ++k) {
    ctl.record_latency(0.001);
    EXPECT_EQ(ctl.evaluations(), 1) << "latency " << k << " is inside the floor";
  }
  ctl.record_latency(0.001);  // k = 9: exactly 10s later
  EXPECT_EQ(ctl.evaluations(), 2);
}

TEST(ControllerSpacing, WarmingControllerEvaluatesOnTheVeryNextEvent) {
  PaperExampleReplay r;
  r.replay_until(10.0);  // only the outer split ran: estimates incomplete
  ManualClock pool_clock(10.0);
  ResizableThreadPool pool(2, 24, &pool_clock);
  StepClock clock(10.0, kStep);
  AutonomicController ctl(pool, r.trackers(), &clock, ControllerConfig{});
  ASSERT_TRUE(ctl.arm(100.0));
  for (long k = 1; k <= 5; ++k) {
    ctl.on_event(after_muscle());
    EXPECT_EQ(ctl.evaluations(), k);
  }
  EXPECT_TRUE(ctl.actions().empty());
}

TEST(ControllerSpacing, ManualClockEvaluatesEveryQualifyingEvent) {
  // Under a ManualClock an evaluation measures zero cost, so the floor
  // never binds: the paper's per-event reactivity is kept exactly.
  PaperExampleReplay r;
  r.replay_until(70.0);
  ManualClock clock(70.0);
  ResizableThreadPool pool(2, 24, &clock);
  AutonomicController ctl(pool, r.trackers(), &clock, ControllerConfig{});
  ASSERT_TRUE(ctl.arm(100.0));
  long qualifying = 0;
  for (int k = 0; k < 12; ++k) {
    for (const Where w : {Where::kExecute, Where::kSplit, Where::kMerge,
                          Where::kCondition}) {
      ctl.on_event(after_muscle(w));
      ++qualifying;
    }
    ctl.on_event(after_muscle(Where::kSkeleton));
    ctl.on_event(after_muscle(Where::kNested));
    Event before = after_muscle();
    before.when = When::kBefore;
    ctl.on_event(before);
  }
  EXPECT_EQ(ctl.evaluations(), qualifying);
}

// ------------------------------------------ warming evaluations and bounds --

/// Flat map: input k splits into k seq muscles, each advancing `clock` by
/// 1 ms; the result is k.
Skel<int, int> flat_map(ManualClock& clock) {
  auto fs = split_muscle<int, int>("fs", [](int k) {
    std::vector<int> v(static_cast<std::size_t>(k));
    std::iota(v.begin(), v.end(), 0);
    return v;
  });
  auto fe = execute_muscle<int, int>("fe", [&clock](int x) {
    clock.advance(0.001);
    return x;
  });
  auto fm = merge_muscle<int, int>(
      "fm", [](std::vector<int> v) { return static_cast<int>(v.size()); });
  return Map(fs, Seq(fe), fm);
}

/// Every event of one run of `skel` on `input` at LP 1, in delivery order.
std::vector<Event> record_events(const Skel<int, int>& skel, int input,
                                 const ManualClock& clock) {
  ResizableThreadPool pool(1, 1, &clock);
  EventBus bus;
  std::mutex mu;
  std::vector<Event> events;
  bus.add_listener(std::make_shared<ObserverListener>([&](const Event& e) {
    std::lock_guard lock(mu);
    events.push_back(e);
  }));
  Engine engine(pool, bus, &clock);
  EXPECT_EQ(skel.input(input, engine).get(), input);
  std::lock_guard lock(mu);
  return events;
}

TEST(ControllerWarming, ColdWideMapRebuildsTheAdgAConstantNumberOfTimes) {
  // Paper scenario 1 on a flat map: no estimate for fm until the final
  // merge, so every evaluation of the run is a warming one. Each still
  // counts, but only those after the stamp moved rebuild the ADG: the
  // split, the first fe and the merge.
  constexpr int kWidth = 1024;
  ManualClock rec_clock(0.0);
  const Skel<int, int> skel = flat_map(rec_clock);
  const std::vector<Event> events = record_events(skel, kWidth, rec_clock);

  ManualClock clock(0.0);
  ResizableThreadPool pool(1, 1, &clock);
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);
  AutonomicController ctl(pool, ts, &clock, ControllerConfig{});
  ASSERT_TRUE(ctl.arm(0.5));
  for (const Event& e : events) {
    clock.set(e.timestamp);
    ts.on_event(e);
    ctl.on_event(e);
  }
  EXPECT_EQ(ctl.evaluations(), kWidth + 2);  // every fe, the split, the merge
  EXPECT_EQ(ctl.adg_rebuilds(), 3);
}

TEST(ControllerWarming, NewRootRebuildsEvenWithoutNewEstimates) {
  // A run abandoned mid-way (a failed muscle) leaves an incomplete root
  // behind. The next run's root must be planned from a fresh snapshot even
  // before it brings any new estimate.
  ManualClock rec_clock(0.0);
  const Skel<int, int> wide = flat_map(rec_clock);  // events point at its nodes
  std::vector<Event> abandoned = record_events(wide, 8, rec_clock);
  const auto first_fe =
      std::find_if(abandoned.begin(), abandoned.end(), [](const Event& e) {
        return e.when == When::kAfter && e.where == Where::kExecute;
      });
  ASSERT_NE(first_fe, abandoned.end());
  abandoned.erase(first_fe + 1, abandoned.end());
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  const Skel<int, int> seq = Seq(fe);
  const std::vector<Event> next = record_events(seq, 1, rec_clock);

  ManualClock clock(0.0);
  ResizableThreadPool pool(1, 1, &clock);
  EstimateRegistry reg(0.5);
  reg.init_duration(fe.m->id(), 0.001);
  TrackerSet ts(reg);
  AutonomicController ctl(pool, ts, &clock, ControllerConfig{});
  ASSERT_TRUE(ctl.arm(1.0));
  for (const Event& e : abandoned) {
    ts.on_event(e);
    ctl.on_event(e);
  }
  ASSERT_EQ(ctl.evaluate_now().reason, DecisionReason::kIncompleteEstimates);
  for (const Event& e : next) {
    if (e.when == When::kBefore) ts.on_event(e);  // the seq is now running
  }
  EXPECT_NE(ctl.evaluate_now().reason, DecisionReason::kIncompleteEstimates);
}

/// operator new calls in this binary (the replacement is at the end of the
/// file); the count is read around single-threaded evaluations.
std::atomic<long> g_allocations{0};

TEST(ControllerEvaluation, SteadyStateEvaluationDoesNotAllocate) {
  // A warm 256-wide map half done: after the controller's first frontier
  // snapshot has sized its buffers, re-evaluating the same state, or the
  // state a few completions later, takes nothing from the heap.
  constexpr int kWidth = 256;
  ManualClock rec_clock(0.0);
  const Skel<int, int> skel = flat_map(rec_clock);
  const std::vector<Event> events = record_events(skel, kWidth, rec_clock);
  EstimateRegistry reg(0.5);
  TrackerSet warm(reg);
  for (const Event& e : events) warm.on_event(e);

  ManualClock clock(0.0);
  ResizableThreadPool pool(1, 4, &clock);
  TrackerSet ts(reg);
  AutonomicController ctl(pool, ts, &clock, ControllerConfig{});
  ASSERT_TRUE(ctl.arm(1.0, 4));
  std::size_t next = 0;
  auto ingest_until_completions = [&](int completions) {
    for (; next < events.size() && completions > 0; ++next) {
      clock.set(events[next].timestamp);
      ts.on_event(events[next]);
      completions -= events[next].when == When::kAfter &&
                     events[next].where == Where::kExecute;
    }
  };
  ingest_until_completions(kWidth / 2);
  for (int k = 0; k < 3; ++k) ctl.evaluate_now();  // size the buffers
  for (int step = 0; step < 4; ++step) {
    const long before = g_allocations.load();
    EXPECT_NE(ctl.evaluate_now().reason, DecisionReason::kIncompleteEstimates);
    EXPECT_EQ(g_allocations.load() - before, 0) << "step " << step;
    ingest_until_completions(2);
    ctl.evaluate_now();  // absorbs the new records' growth
  }
  EXPECT_GT(ctl.adg_rebuilds(), 8);
}

TEST(TrackerSet, RetainsAboutOneRunOfInstancesOverManyRuns) {
  // A long-lived set serves an endless series of runs: the trackers of a
  // finished root are retired when the next root starts.
  constexpr int kWidth = 4;
  constexpr int kPerRun = kWidth + 1;  // the map and its seq children
  ManualClock clock(0.0);
  const Skel<int, int> skel = flat_map(clock);
  ResizableThreadPool pool(1, 1, &clock);
  EventBus bus;
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);
  bus.add_listener(ts.as_listener());
  Engine engine(pool, bus, &clock);
  std::size_t peak = 0;
  for (int run = 0; run < 10000; ++run) {
    ASSERT_EQ(skel.input(kWidth, engine).get(), kWidth);
    peak = std::max(peak, ts.tracked_instances());
  }
  EXPECT_EQ(ts.tracked_instances(), static_cast<std::size_t>(kPerRun));
  EXPECT_LE(peak, static_cast<std::size_t>(kPerRun));
  EXPECT_TRUE(ts.root_finished());
  EXPECT_EQ(ts.snapshot(clock.now()).size(), static_cast<std::size_t>(kWidth + 2));
}

TEST(ControllerActions, LogKeepsOnlyTheMostRecentHistory) {
  // Each refused arm logs one marker action and never clears the log (a
  // rejected goal must not erase the previous episode), so repeated refusals
  // drive the log just like an SLO controller armed for good.
  ManualClock clock(0.0);
  ResizableThreadPool pool(1, 2, &clock);
  EstimateRegistry reg(0.5);
  TrackerSet ts(reg);
  AutonomicController ctl(pool, ts, &clock, ControllerConfig{});
  constexpr long kArms = 3 * static_cast<long>(AutonomicController::kMaxHistory);
  for (long k = 1; k <= kArms; ++k) {
    clock.set(static_cast<double>(k));
    ASSERT_FALSE(ctl.arm(0.0));
  }
  const std::vector<AutonomicController::Action> log = ctl.actions();
  EXPECT_LE(log.size(), AutonomicController::kMaxHistory);
  EXPECT_GE(log.size(), AutonomicController::kMaxHistory / 2);
  EXPECT_EQ(log.back().t, static_cast<double>(kArms));  // newest kept
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_EQ(log[i].t, log[i - 1].t + 1.0);  // contiguous, in time order
  }
}

}  // namespace
}  // namespace askel

// Counting replacements of the global allocation functions (this test binary
// only); the aligned forms keep their defaults. Not inlined, so that GCC does
// not pair an inlined free() with the new-expression that allocated.
[[gnu::noinline]] void* operator new(std::size_t n) {
  askel::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
