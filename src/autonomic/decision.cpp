#include "autonomic/decision.hpp"

#include <algorithm>
#include <cmath>

#include "adg/best_effort.hpp"
#include "adg/limited_lp.hpp"
#include "adg/timeline.hpp"

namespace askel {

std::string to_string(DecisionReason r) {
  switch (r) {
    case DecisionReason::kNoChange: return "no-change";
    case DecisionReason::kIncompleteEstimates: return "incomplete-estimates";
    case DecisionReason::kEmptySnapshot: return "empty-snapshot";
    case DecisionReason::kUnachievableRamp: return "unachievable-ramp";
    case DecisionReason::kIncreaseToGoal: return "increase-to-goal";
    case DecisionReason::kIncreaseSaturated: return "increase-saturated";
    case DecisionReason::kDecreaseHalf: return "decrease-half";
    case DecisionReason::kDisarmed: return "disarmed";
    case DecisionReason::kProvisionFailed: return "provision-failed";
    case DecisionReason::kInvalidGoal: return "invalid-goal";
    case DecisionReason::kSloIncrease: return "slo-increase";
    case DecisionReason::kSloDecrease: return "slo-decrease";
  }
  return "?";
}

Decision decide(const AdgSnapshot& g, TimePoint goal_abs, int current_lp,
                int max_lp, const DecisionConfig& cfg) {
  DecisionWorkspace ws;
  return decide(g, goal_abs, current_lp, max_lp, cfg, ws);
}

Decision decide(const AdgSnapshot& g, TimePoint goal_abs, int current_lp,
                int max_lp, const DecisionConfig& cfg, DecisionWorkspace& ws) {
  Decision d;
  d.new_lp = current_lp;
  if (g.size() == 0) {
    d.reason = DecisionReason::kEmptySnapshot;
    return d;
  }
  if (!g.complete_estimates) {
    // "The system has to wait until all muscles have been executed at least
    // once" (or been initialized) before it can reason about the future.
    d.reason = DecisionReason::kIncompleteEstimates;
    return d;
  }

  const Schedule& be = ws.best_effort;
  best_effort(g, ws.best_effort);
  d.best_effort_wct = be.wct;
  d.optimal_lp =
      std::max({1, g.past_peak, peak_concurrency(be, ws.starts, ws.ends)});
  auto wct_at = [&](int lp) { return limited_lp(g, lp, ws.limited).wct; };
  d.current_lp_wct = wct_at(current_lp);

  if (be.wct > goal_abs) {
    // Even infinite parallelism misses the goal: allocate toward the optimal
    // LP (more threads than that cannot help), ramping so that refining
    // estimates keep the allocation honest. The allocation always covers the
    // READY frontier — pending activities that could start right now — since
    // serializing ready work would lengthen the critical path for certain
    // (the paper's §5 discussion of the "extra split execution" worst case).
    int ready_width = 0;
    for (const Activity& a : g.activities) {
      if (a.state == ActivityState::kRunning) {
        ++ready_width;
        continue;
      }
      if (a.state != ActivityState::kPending) continue;
      bool ready = true;
      for (const int p : a.preds) {
        if (g.activities[p].state != ActivityState::kDone) {
          ready = false;
          break;
        }
      }
      ready_width += ready;
    }
    const int target = std::min(d.optimal_lp, max_lp);
    int next = target;
    if (cfg.ramp_factor > 1) {
      next = std::min(target, std::max({current_lp + 1,
                                        current_lp * cfg.ramp_factor,
                                        ready_width}));
    }
    if (next > current_lp) {
      d.new_lp = next;
      d.reason = DecisionReason::kUnachievableRamp;
    } else {
      d.reason = DecisionReason::kNoChange;
    }
    return d;
  }

  if (d.current_lp_wct > goal_abs) {
    // Achievable with more threads: smallest LP that meets the goal.
    // (Limited-LP WCT is non-increasing in LP under the paper's assumption
    // of non-strictly-increasing speedup, so first hit = smallest.)
    for (int k = current_lp + 1; k <= max_lp; ++k) {
      if (wct_at(k) <= goal_abs) {
        d.new_lp = k;
        d.reason = DecisionReason::kIncreaseToGoal;
        return d;
      }
    }
    d.new_lp = std::max(current_lp, std::min(d.optimal_lp, max_lp));
    d.reason = d.new_lp > current_lp ? DecisionReason::kIncreaseSaturated
                                     : DecisionReason::kNoChange;
    return d;
  }

  if (cfg.allow_decrease && current_lp > 1) {
    const int half = std::max(1, current_lp / 2);
    if (wct_at(half) <= goal_abs) {
      d.new_lp = half;
      d.reason = DecisionReason::kDecreaseHalf;
      return d;
    }
  }
  d.reason = DecisionReason::kNoChange;
  return d;
}

double goal_pressure(const Decision& d, TimePoint goal_abs, TimePoint now) {
  if (d.current_lp_wct <= 0.0) return 0.0;  // warming up: no estimate yet
  // A goal already in the past compresses the window to epsilon: any
  // remaining work produces very high (but finite) pressure. Clamped so a
  // degenerate window cannot push effectively-infinite pressure into a
  // shared coordinator's arbitration (arm() additionally rejects zero/
  // negative goals outright — this is the defense in depth behind it).
  const double remaining = std::max(goal_abs - now, 1e-9);
  return std::clamp((d.current_lp_wct - goal_abs) / remaining, -kMaxPressure,
                    kMaxPressure);
}

Decision decide_slo(const TailSnapshot& t, Duration tail_goal, int current_lp,
                    int max_lp, const SloDecisionConfig& cfg) {
  Decision d;
  d.new_lp = current_lp;
  // Reused columns: "best effort" carries the median, "current LP" the tail —
  // the two latency estimates the decision was made from.
  d.best_effort_wct = t.median;
  d.current_lp_wct = t.tail;
  if (!(tail_goal > 0.0)) {
    d.reason = DecisionReason::kInvalidGoal;
    return d;
  }
  if (t.observations == 0) {
    d.reason = DecisionReason::kEmptySnapshot;
    return d;
  }
  if (t.observations < cfg.min_observations) {
    d.reason = DecisionReason::kIncompleteEstimates;
    return d;
  }

  if (t.tail > tail_goal) {
    // Missing the SLO: grow proportionally to the relative miss (a tail at
    // 2x the goal wants ~2x the service capacity), at least one thread,
    // capped by the multiplicative ramp and the LP ceiling.
    const double ratio = t.tail / tail_goal;
    const int proportional = static_cast<int>(
        std::ceil(static_cast<double>(current_lp) * std::min(
            ratio, static_cast<double>(std::max(1, cfg.ramp_factor)))));
    const int next = std::min(max_lp, std::max(current_lp + 1, proportional));
    if (next > current_lp) {
      d.new_lp = next;
      d.reason = DecisionReason::kSloIncrease;
    } else {
      d.reason = DecisionReason::kNoChange;  // already at the ceiling
    }
    return d;
  }

  if (current_lp > 1 && t.tail < cfg.decrease_margin * tail_goal) {
    // Comfortably under the SLO: release half, mirroring the paper's
    // deliberately-slower decrease path.
    d.new_lp = std::max(1, current_lp / 2);
    d.reason = DecisionReason::kSloDecrease;
    return d;
  }

  d.reason = DecisionReason::kNoChange;
  return d;
}

double slo_pressure(const TailSnapshot& t, Duration tail_goal) {
  if (!(tail_goal > 0.0) || t.observations == 0) return 0.0;
  return std::clamp((t.tail - tail_goal) / tail_goal, -kMaxPressure,
                    kMaxPressure);
}

}  // namespace askel
