#pragma once
// AutonomicController: closes the MAPE loop.
//
// Monitor  — the TrackerSet listener mirrors the execution (events);
// Analyze  — on After-muscle events the controller takes the frontier
//            snapshot of the ADG (running and pending activities; the done
//            past folded, see adg/snapshot.hpp) and estimates best-effort /
//            limited-LP completion times, reusing its snapshot and decide()
//            workspace (a steady-state evaluation of a flat map allocates
//            nothing). It evaluates on every such event unless min_interval
//            or the duty-cycle floor spaces evaluations out: after an
//            evaluation that cost c, the next waits at least 50c (10c in SLO
//            mode, whose evaluations read no ADG), so Analyze holds about 2%
//            of one core however wide the ADG grows. While estimates are
//            still warming up, the snapshot is rebuilt only when the
//            TrackerSet's resolution stamp moved since the last incomplete
//            one — otherwise the outcome is known to be kIncompleteEstimates
//            again;
// Plan     — decision.cpp picks the LP;
// Execute  — ResizableThreadPool::set_target_lp applies it immediately.
//
// The controller is itself an event listener, so the adaptation targets "the
// currently evaluated instance, and not the next execution of the whole
// problem" (paper §4).
//
// Sharded mode: N controllers — one per skeleton/tenant, each with its own
// TrackerSet and goal — share one pool. Call bind_coordinator() before arm()
// and the Execute step goes through the LpBudgetCoordinator (allocation
// requests) instead of pool.set_target_lp; the controller then plans against
// its granted share rather than the pool-wide target. Unbound, behavior is
// identical to the single-controller original.
//
// Service (SLO) mode: arm_slo() arms with a tail-latency goal instead of a
// deadline. The Monitor step is then record_latency() — completed requests
// feed a per-tenant P² tail tracker — and the Plan step is decide_slo():
// grants respond to tail pressure (relative p99 miss) continuously, for as
// long as the stream runs, instead of once per batch deadline. Skeleton
// events still trigger evaluations while armed in SLO mode, but every
// evaluation plans from the tail tracker, never the ADG.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "autonomic/coordinator.hpp"
#include "autonomic/decision.hpp"
#include "autonomic/goals.hpp"
#include "est/registry.hpp"
#include "events/event_bus.hpp"
#include "runtime/thread_pool.hpp"
#include "sm/tracker_set.hpp"

namespace askel {

struct ControllerConfig {
  DecisionConfig decision;
  /// SLO-mode decision knobs (used only after arm_slo).
  SloDecisionConfig slo;
  /// Minimum wall-clock spacing between evaluations (0 = evaluate on every
  /// qualifying event; matches the paper's per-event reactivity). The
  /// controller also enforces a duty-cycle floor of 50x the last
  /// evaluation's measured cost (10x in SLO mode), so on wide ADGs the MAPE
  /// loop holds a bounded share of one core whatever this is set to.
  Duration min_interval = 0.0;
};

class AutonomicController {
 public:
  AutonomicController(ResizableThreadPool& pool, TrackerSet& trackers,
                      const Clock* clock = &default_clock(),
                      ControllerConfig cfg = {});

  /// Route LP changes through `coord` as tenant `tenant` (a registered id,
  /// >= 1; an invalid id leaves the controller unbound). Call before arm();
  /// while armed the binding is fixed. Passing nullptr unbinds (back to
  /// direct pool actuation).
  void bind_coordinator(LpBudgetCoordinator* coord, int tenant);

  /// SLA class weight (>= 1, default 1) forwarded to the coordinator's
  /// WeightedSharePolicy; a no-op while unbound (and under policies that
  /// ignore weights). May be called before bind_coordinator — the weight is
  /// forwarded at bind time.
  void set_sla_weight(int weight);

  /// Hierarchical tenant group (>= 1; 0 = ungrouped, the default) forwarded
  /// to the coordinator's GroupedArbitrationPolicy. Same rules as the SLA
  /// weight: a no-op while unbound, forwarded at bind time when set earlier.
  void set_tenant_group(int group);

  /// Arm with a WCT goal anchored at `clock.now()`. `max_lp` 0 = pool max
  /// (or the coordinator budget when bound). When bound, arming claims an
  /// initial allocation from the coordinator. Returns false — and stays
  /// DISARMED, with one kInvalidGoal marker action — when the goal fails
  /// validate_goals (zero/negative/non-finite): a degenerate deadline would
  /// otherwise feed unbounded pressure into shared arbitration and starve
  /// every honest tenant sharing the coordinator.
  bool arm(Duration wct_goal_seconds, int max_lp = 0);
  /// Arm with a tail-latency SLO: "quantile(q) of request latency stays
  /// under tail_goal_seconds". Same validation contract as arm(). A fresh
  /// tail tracker is created per arm (a new goal starts a new measurement);
  /// feed it with record_latency() as requests complete.
  bool arm_slo(Duration tail_goal_seconds, int max_lp = 0, double quantile = 0.99);
  /// Arm with an explicit goal struct (the general form behind both).
  bool arm_goals(const QoSGoals& goals);
  /// Disarm. When bound, releases this tenant's allocation back to the
  /// budget (the coordinator re-arbitrates survivors immediately).
  void disarm();
  bool armed() const;
  TimePoint goal_abs() const;
  /// The armed goal (meaningful while armed; kWct by default).
  QoSGoals goals() const;

  /// SLO mode: fold in one completed request's latency (seconds) and — when
  /// the evaluation throttle allows — re-plan from the updated tail. Safe to
  /// call from any thread (typically the worker completing the request);
  /// a no-op unless armed in SLO mode.
  void record_latency(Duration latency);
  /// SLO mode: consistent view of the tail tracker (zeros when not in SLO
  /// mode or never armed).
  TailSnapshot tail_snapshot() const;
  /// SLO mode: fraction of recorded requests meeting the armed tail goal
  /// (1.0 when none recorded / not in SLO mode).
  double slo_attainment() const;

  /// Listener adapter; register AFTER the TrackerSet listener so the tracker
  /// has ingested an event before the controller evaluates it.
  EventBus::ListenerPtr as_listener();

  /// Feed one event (normally via the bus).
  void on_event(const Event& ev);

  /// Force one evaluation now (used by tests and by callers with their own
  /// triggering policy).
  Decision evaluate_now();

  /// One record per applied LP change. Bounded: only the most recent
  /// ~kMaxHistory records are kept (an armed SLO controller logs for as long
  /// as its stream runs).
  static constexpr std::size_t kMaxHistory = 4096;
  struct Action {
    TimePoint t = 0.0;
    int from_lp = 0;
    int to_lp = 0;
    DecisionReason reason = DecisionReason::kNoChange;
    TimePoint best_effort_wct = 0.0;
    TimePoint current_lp_wct = 0.0;
  };
  std::vector<Action> actions() const;
  /// Evaluations since arm, warming ones included.
  long evaluations() const;
  /// ADG snapshots built since arm: evaluations minus the warming ones
  /// answered from an unchanged resolution stamp (and minus SLO-mode ones).
  long adg_rebuilds() const;
  /// What the last evaluation cost on the controller's clock, the quantity
  /// the duty-cycle floor multiplies (0 under a ManualClock).
  Duration last_evaluation_cost() const;

 private:
  Decision evaluate_locked(TimePoint now);
  /// Throttle shared by on_event and record_latency: true unless the last
  /// evaluation was actionable and ran less than max(min_interval, the
  /// duty-cycle floor) before `now`.
  bool evaluation_due_locked(TimePoint now) const;
  int effective_max_lp() const;
  int current_lp_locked() const;
  void log_action_locked(const Action& a);

  ResizableThreadPool& pool_;
  TrackerSet& trackers_;
  const Clock* clock_;
  ControllerConfig cfg_;
  LpBudgetCoordinator* coord_ = nullptr;
  int tenant_ = 0;
  int sla_weight_ = 1;
  int group_ = 0;

  mutable std::mutex mu_;
  bool armed_ = false;
  QoSGoals goals_;
  TimePoint goal_abs_ = 0.0;
  int max_lp_goal_ = 0;
  /// SLO-mode sensor; rebuilt on every arm_slo (null in WCT mode). Shared
  /// ptr so record_latency can take a reference without holding mu_ across
  /// the (internally locked) tracker update.
  std::shared_ptr<TailTracker> tail_;
  TimePoint last_eval_ = -1.0;
  /// Duration of the last evaluation on clock_ (0 under a ManualClock).
  Duration last_eval_cost_ = 0.0;
  /// Pool provision-failure counter at the last evaluation (seeded at arm):
  /// an advance means a grow this controller planned (or shared the pool
  /// with) never materialized — surfaced as one kProvisionFailed action.
  std::uint64_t provision_failures_seen_ = 0;
  DecisionReason last_reason_ = DecisionReason::kEmptySnapshot;
  long evaluations_ = 0;
  long adg_rebuilds_ = 0;
  /// Resolution stamp read before the last snapshot, kept only when that
  /// snapshot was incomplete and not truncated.
  std::optional<ResolutionStamp> warming_stamp_;
  /// The last frontier snapshot and decide()'s scratch, reused by every
  /// evaluation.
  AdgSnapshot frontier_;
  DecisionWorkspace workspace_;
  std::vector<Action> actions_;
};

}  // namespace askel
