#pragma once
// The LP decision policy, as a pure function of an ADG snapshot — fully
// deterministic and unit-testable without threads.
//
// Paper §4:
//  * increase: "the algorithm to calculate the optimal WCT is a greedy one,
//    while the algorithm to calculate the minimal number of threads to
//    guarantee a WCT goal is NP-Complete" — we greedily search the smallest
//    LP whose limited-LP WCT meets the goal;
//  * when even infinite LP misses the goal, we ramp toward the optimal LP
//    (the best-effort concurrency peak) multiplicatively, which reproduces
//    the paper's gradual thread ramp as estimates refine;
//  * decrease: "first checks if the goal could be targeted using half of the
//    threads; if it can, it decreases the number of threads to the half" —
//    deliberately slower than the increase path.

#include <vector>

#include "adg/limited_lp.hpp"
#include "adg/snapshot.hpp"
#include "est/tail_tracker.hpp"

namespace askel {

enum class DecisionReason : int {
  kNoChange,           // current LP already meets the goal, half would not
  kIncompleteEstimates,// some muscle never observed: wait (paper §4)
  kEmptySnapshot,      // nothing tracked yet
  kUnachievableRamp,   // goal missed even best-effort: ramp toward optimal LP
  kIncreaseToGoal,     // smallest LP meeting the goal
  kIncreaseSaturated,  // no LP <= max meets the goal: use min(optimal, max)
  kDecreaseHalf,       // half the threads still meet the goal
  kDisarmed,           // controller not armed: no goal to plan for, no
                       // Execute step (in particular, no coordinator request
                       // that could race a reclaimed grant back in)
  kProvisionFailed,    // a requested grow never materialized: the worker
                       // backend could not provision (remote join refused or
                       // timed out). The pool already fell back to the
                       // effective LP and the coordinator clawed the grant
                       // back; this action surfaces the episode in the log.
  kInvalidGoal,        // arm() rejected the goal (zero/negative/non-finite
                       // time target — see validate_goals): the controller
                       // stays disarmed rather than feeding a degenerate
                       // deadline's unbounded pressure into arbitration.
  kSloIncrease,        // tail-latency estimate above the SLO: grow LP
  kSloDecrease,        // tail comfortably under the SLO: try half the threads
};

std::string to_string(DecisionReason r);

struct DecisionConfig {
  /// Multiplicative step used on the unachievable path (1 disables ramping
  /// and jumps straight to min(optimal LP, max) — an ablation knob).
  /// 3 matches the paper's observed first step (1 → 3 at 7.6 s in Fig. 5).
  int ramp_factor = 3;
  /// Disable the halving decrease (ablation knob).
  bool allow_decrease = true;
};

struct Decision {
  int new_lp = 1;
  DecisionReason reason = DecisionReason::kNoChange;
  /// Best-effort (infinite LP) completion estimate, absolute time.
  TimePoint best_effort_wct = 0.0;
  /// Limited-LP completion estimate at the *current* LP, absolute time.
  TimePoint current_lp_wct = 0.0;
  /// Peak concurrency of the best-effort schedule (the paper's optimal LP).
  int optimal_lp = 0;
};

/// Working storage of decide(): the best-effort schedule, limited_lp's
/// scratch and the profile's change points. A controller keeps one, so its
/// evaluations stop allocating once they have seen a snapshot of this size.
struct DecisionWorkspace {
  Schedule best_effort;
  LimitedLpScratch limited;
  std::vector<TimePoint> starts;
  std::vector<TimePoint> ends;
};

/// Decide the LP for a snapshot (either form) given the absolute-time goal.
Decision decide(const AdgSnapshot& g, TimePoint goal_abs, int current_lp,
                int max_lp, const DecisionConfig& cfg = {});
/// Same, computed in `ws`.
Decision decide(const AdgSnapshot& g, TimePoint goal_abs, int current_lp,
                int max_lp, const DecisionConfig& cfg, DecisionWorkspace& ws);

/// Deadline pressure of a decision: how far the limited-LP completion
/// estimate misses the goal, relative to the time still remaining until the
/// deadline. Positive = missing (1.0 means "late by the whole remaining
/// window"), negative = slack, 0 = no estimate yet. The LP-budget coordinator
/// arbitrates contested LP by this value: the widest relative miss wins.
/// Clamped to [-kMaxPressure, kMaxPressure], so even a degenerate window
/// (goal already long past) produces large-but-bounded pressure that
/// arbitration arithmetic can order without overflow.
double goal_pressure(const Decision& d, TimePoint goal_abs, TimePoint now);

/// Ceiling on the magnitude any pressure function reports. Large enough that
/// real contention never saturates it, small enough that sums over a demand
/// vector stay comfortably finite.
inline constexpr double kMaxPressure = 1.0e6;

/// How the SLO controller steers LP from a tail-latency snapshot. The shape
/// mirrors the paper's WCT controller transposed to the latency domain:
/// multiplicative increase proportional to the relative SLO miss (a tail at
/// 2x the goal wants roughly twice the service rate), halving decrease only
/// when the tail sits far enough under the goal that half the threads have
/// headroom to absorb the shift.
struct SloDecisionConfig {
  /// Observations before the tracker is trusted to steer (a P² estimate from
  /// a handful of samples is noise; grants should not chase it).
  long min_observations = 16;
  /// Decrease only when tail < decrease_margin * goal (and LP > 1).
  double decrease_margin = 0.5;
  /// Cap on the multiplicative step of one increase decision.
  int ramp_factor = 2;
};

/// Decide the LP for a service tenant from its tail-latency snapshot and SLO
/// goal (seconds). Pure and deterministic, like decide(). The returned
/// Decision reuses best_effort_wct/current_lp_wct to carry the median/tail
/// estimates (the action log's "what the controller saw" columns).
Decision decide_slo(const TailSnapshot& t, Duration tail_goal, int current_lp,
                    int max_lp, const SloDecisionConfig& cfg = {});

/// SLO pressure: relative tail miss (tail - goal) / goal. Positive = missing
/// the SLO, negative = slack, 0 = warming up or no goal. Same scale and sign
/// convention as goal_pressure, so batch and service tenants arbitrate
/// against each other on one axis; clamped to +-kMaxPressure.
double slo_pressure(const TailSnapshot& t, Duration tail_goal);

}  // namespace askel
