#include "autonomic/controller.hpp"

#include <algorithm>

#include "events/listener.hpp"

namespace askel {

namespace {

/// Duty-cycle floor: an evaluation that cost c seconds is followed by at
/// least kEvalSpacingFactor * c of quiet, so Analyze holds about 1/50 of one
/// core however wide the ADG grows. Planning on the frontier snapshot made
/// an ADG evaluation several times cheaper; the factor rose from 10 to 50
/// with it, so wide_map keeps its cadence and banks the saving as CPU.
constexpr double kEvalSpacingFactor = 50.0;
/// SLO-mode evaluations (decide_slo over a tail snapshot, no ADG) did not get
/// cheaper, so they keep the old factor.
constexpr double kSloEvalSpacingFactor = 10.0;

}  // namespace

AutonomicController::AutonomicController(ResizableThreadPool& pool,
                                         TrackerSet& trackers, const Clock* clock,
                                         ControllerConfig cfg)
    : pool_(pool), trackers_(trackers), clock_(clock), cfg_(cfg) {}

void AutonomicController::bind_coordinator(LpBudgetCoordinator* coord,
                                           int tenant) {
  std::lock_guard lock(mu_);
  if (armed_) return;  // the binding is fixed while armed
  if (coord != nullptr && tenant < 1) coord = nullptr;  // ids start at 1
  coord_ = coord;
  tenant_ = coord == nullptr ? 0 : tenant;
  if (coord_ != nullptr && sla_weight_ != 1) {
    coord_->set_tenant_weight(tenant_, sla_weight_);
  }
  if (coord_ != nullptr && group_ != 0) {
    coord_->set_tenant_group(tenant_, group_);
  }
}

void AutonomicController::set_sla_weight(int weight) {
  std::lock_guard lock(mu_);
  sla_weight_ = std::max(1, weight);
  if (coord_ != nullptr) coord_->set_tenant_weight(tenant_, sla_weight_);
}

void AutonomicController::set_tenant_group(int group) {
  std::lock_guard lock(mu_);
  group_ = std::max(0, group);
  if (coord_ != nullptr) coord_->set_tenant_group(tenant_, group_);
}

bool AutonomicController::arm(Duration wct_goal_seconds, int max_lp) {
  QoSGoals g;
  g.kind = GoalKind::kWct;
  g.wct_goal = wct_goal_seconds;
  g.max_lp = std::max(0, max_lp);
  return arm_goals(g);
}

bool AutonomicController::arm_slo(Duration tail_goal_seconds, int max_lp,
                                  double quantile) {
  QoSGoals g;
  g.kind = GoalKind::kTailLatency;
  g.tail_goal = tail_goal_seconds;
  g.tail_quantile = quantile;
  g.max_lp = std::max(0, max_lp);
  return arm_goals(g);
}

bool AutonomicController::arm_goals(const QoSGoals& goals) {
  std::lock_guard lock(mu_);
  const TimePoint now = clock_->now();
  if (validate_goals(goals) != nullptr) {
    // Refuse the arm entirely: a zero/negative time goal is a deadline
    // already missed by construction, and the pressure it would report —
    // epsilon-window deadline pressure or division by a zero target — would
    // poison a shared coordinator's arbitration against every honest tenant.
    // One marker action records the episode; the coordinator never hears of
    // this tenant (no arm_tenant), so its water-fill is untouched.
    const int at = current_lp_locked();
    log_action_locked(Action{now, at, at, DecisionReason::kInvalidGoal, 0.0, 0.0});
    armed_ = false;
    return false;
  }
  armed_ = true;
  goals_ = goals;
  goal_abs_ = now + goals.wct_goal;  // meaningful in kWct mode only
  max_lp_goal_ = goals.max_lp;
  tail_ = goals.kind == GoalKind::kTailLatency
              ? std::make_shared<TailTracker>(goals.tail_quantile,
                                              goals.tail_goal)
              : nullptr;
  last_eval_ = -1.0;
  last_eval_cost_ = 0.0;
  last_reason_ = DecisionReason::kEmptySnapshot;
  evaluations_ = 0;
  adg_rebuilds_ = 0;
  warming_stamp_.reset();
  actions_.clear();
  // Failures that predate this arm are not this goal's business.
  provision_failures_seen_ = pool_.provision_failures();
  if (coord_ != nullptr) coord_->arm_tenant(tenant_);
  return true;
}

void AutonomicController::disarm() {
  std::lock_guard lock(mu_);
  if (armed_ && coord_ != nullptr) coord_->release(tenant_);
  armed_ = false;
}

bool AutonomicController::armed() const {
  std::lock_guard lock(mu_);
  return armed_;
}

TimePoint AutonomicController::goal_abs() const {
  std::lock_guard lock(mu_);
  return goal_abs_;
}

QoSGoals AutonomicController::goals() const {
  std::lock_guard lock(mu_);
  return goals_;
}

void AutonomicController::record_latency(Duration latency) {
  std::shared_ptr<TailTracker> tracker;
  {
    std::lock_guard lock(mu_);
    if (!armed_ || goals_.kind != GoalKind::kTailLatency) return;
    tracker = tail_;
  }
  if (tracker == nullptr) return;
  tracker->record(latency);
  // Completed requests are the SLO controller's events: re-plan from the
  // updated tail, under the same throttle and try-lock discipline as
  // on_event (a concurrent evaluation already sees fresher tracker state).
  std::unique_lock lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  if (!armed_ || tail_ != tracker) return;  // disarmed or re-armed meanwhile
  const TimePoint now = clock_->now();
  if (evaluation_due_locked(now)) evaluate_locked(now);
}

TailSnapshot AutonomicController::tail_snapshot() const {
  std::shared_ptr<TailTracker> tracker;
  {
    std::lock_guard lock(mu_);
    tracker = tail_;
  }
  return tracker == nullptr ? TailSnapshot{} : tracker->snapshot();
}

double AutonomicController::slo_attainment() const {
  std::shared_ptr<TailTracker> tracker;
  {
    std::lock_guard lock(mu_);
    tracker = tail_;
  }
  return tracker == nullptr ? 1.0 : tracker->attainment();
}

int AutonomicController::effective_max_lp() const {
  // Unbound controllers still honor an externally installed pool budget cap
  // (lp_limit == max_lp when none): deciding above it would plan LP the
  // pool will refuse to apply.
  const int hard = coord_ != nullptr ? coord_->budget()
                                     : std::min(pool_.max_lp(), pool_.lp_limit());
  return max_lp_goal_ > 0 ? std::min(max_lp_goal_, hard) : hard;
}

int AutonomicController::current_lp_locked() const {
  // Sharded mode plans against this tenant's granted share; the pool-wide
  // target is the coordinator's aggregate and says nothing about us.
  if (coord_ != nullptr) return std::max(1, coord_->granted(tenant_));
  return pool_.target_lp();
}

EventBus::ListenerPtr AutonomicController::as_listener() {
  return std::make_shared<ObserverListener>([this](const Event& ev) { on_event(ev); });
}

void AutonomicController::on_event(const Event& ev) {
  if (ev.when != When::kAfter) return;
  // Re-estimate when a muscle completes — that is when estimates change.
  switch (ev.where) {
    case Where::kExecute:
    case Where::kSplit:
    case Where::kMerge:
    case Where::kCondition:
      break;
    default:
      return;
  }
  std::unique_lock lock(mu_, std::try_to_lock);
  // Evaluations are serialized; a concurrent one already reflects fresher
  // tracker state than this event, so skipping is safe.
  if (!lock.owns_lock()) return;
  if (!armed_) return;
  const TimePoint now = clock_->now();
  if (evaluation_due_locked(now)) evaluate_locked(now);
}

bool AutonomicController::evaluation_due_locked(TimePoint now) const {
  // Throttle only actionable evaluations: while estimates are still warming
  // up, the very next event may be the one that completes them (the first
  // merge in the paper's scenario 1), and it must be evaluated immediately.
  const bool warming = last_reason_ == DecisionReason::kIncompleteEstimates ||
                       last_reason_ == DecisionReason::kEmptySnapshot;
  if (warming || last_eval_ < 0.0) return true;
  const double factor = goals_.kind == GoalKind::kTailLatency ? kSloEvalSpacingFactor
                                                              : kEvalSpacingFactor;
  const Duration spacing = std::max(cfg_.min_interval, factor * last_eval_cost_);
  return now - last_eval_ >= spacing;
}

Decision AutonomicController::evaluate_now() {
  std::lock_guard lock(mu_);
  return evaluate_locked(clock_->now());
}

Decision AutonomicController::evaluate_locked(TimePoint now) {
  // A disarmed controller has no goal to plan for, and its Execute step is
  // forbidden: a coordinator request here would land AFTER disarm() released
  // the tenant's grant, re-installing a stale allocation (and logging a
  // phantom action). disarm()/evaluate share mu_, so this check fully
  // serializes reclaim against in-flight evaluations.
  if (!armed_) {
    Decision d;
    d.reason = DecisionReason::kDisarmed;
    d.new_lp = current_lp_locked();
    return d;
  }
  last_eval_ = now;
  ++evaluations_;
  // Surface provisioning failures since the last evaluation: a planned grow
  // the backend could not deliver. The bookkeeping already happened below us
  // (the pool abandoned the request; a bound coordinator clawed the grant
  // back), so this is one marker action — the decision below then re-plans
  // from the LP that actually exists.
  const std::uint64_t failures = pool_.provision_failures();
  if (failures != provision_failures_seen_) {
    provision_failures_seen_ = failures;
    const int at = current_lp_locked();
    log_action_locked(
        Action{now, at, at, DecisionReason::kProvisionFailed, 0.0, 0.0});
  }
  const int current = current_lp_locked();
  const bool slo_mode = goals_.kind == GoalKind::kTailLatency;
  Decision d;
  double pressure = 0.0;
  if (slo_mode) {
    // Service tenants plan from the latency tail, never the ADG: the stream
    // has no completion time to estimate, only a quantile to hold down.
    const TailSnapshot t =
        tail_ != nullptr ? tail_->snapshot() : TailSnapshot{};
    d = decide_slo(t, goals_.tail_goal, current, effective_max_lp(), cfg_.slo);
    pressure = slo_pressure(t, goals_.tail_goal);
  } else {
    const ResolutionStamp stamp = trackers_.resolution_stamp();
    if (warming_stamp_ == stamp) {
      // Nothing the last (incomplete) snapshot lacked can have arrived:
      // decide() would take its kIncompleteEstimates early return again.
      d.new_lp = current;
      d.reason = DecisionReason::kIncompleteEstimates;
    } else {
      trackers_.snapshot(now, SnapshotForm::kFrontier, frontier_);
      ++adg_rebuilds_;
      d = decide(frontier_, goal_abs_, current, effective_max_lp(), cfg_.decision,
                 workspace_);
      if (d.reason == DecisionReason::kIncompleteEstimates && !frontier_.truncated) {
        warming_stamp_ = stamp;
      } else {
        warming_stamp_.reset();
      }
    }
    pressure = goal_pressure(d, goal_abs_, now);
  }
  last_reason_ = d.reason;
  int applied = d.new_lp;
  if (coord_ != nullptr) {
    // Request even on no-change decisions: the pressure refresh is what lets
    // the coordinator take LP back from tenants that stopped needing it.
    applied = std::max(1, coord_->request(tenant_, d.new_lp, pressure));
  } else if (d.new_lp != current) {
    // Record what the pool actually installed (identical to d.new_lp unless
    // a budget cap clamped it), so the action log never shows phantom LPs.
    applied = pool_.set_target_lp(d.new_lp);
  }
  if (applied != current) {
    log_action_locked(Action{now, current, applied, d.reason, d.best_effort_wct,
                             d.current_lp_wct});
  }
  last_eval_cost_ = clock_->now() - now;
  return d;
}

std::vector<AutonomicController::Action> AutonomicController::actions() const {
  std::lock_guard lock(mu_);
  return actions_;
}

long AutonomicController::evaluations() const {
  std::lock_guard lock(mu_);
  return evaluations_;
}

long AutonomicController::adg_rebuilds() const {
  std::lock_guard lock(mu_);
  return adg_rebuilds_;
}

Duration AutonomicController::last_evaluation_cost() const {
  std::lock_guard lock(mu_);
  return last_eval_cost_;
}

void AutonomicController::log_action_locked(const Action& a) {
  // Dropped in halves to stay amortized O(1), like the coordinator's history.
  if (actions_.size() >= kMaxHistory) {
    actions_.erase(actions_.begin(),
                   actions_.begin() + static_cast<long>(kMaxHistory / 2));
  }
  actions_.push_back(a);
}

}  // namespace askel
