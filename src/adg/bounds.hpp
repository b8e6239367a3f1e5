#pragma once
// Analytic WCT bounds — cheaper alternatives to the limited-LP list-schedule
// simulation (the paper's §6 names "analyses of different WCT estimation
// algorithms comparing its overhead costs" as future work; this implements
// the classic candidates).
//
// For a snapshot with remaining work W (sum of running-remainders and pending
// durations), critical path CP (the best-effort WCT) and LP p:
//   * work_bound(g, p)   = now + W / p            (machine-capacity bound)
//   * graham_bound(g, p) = max(CP, work_bound)    (valid lower bound on any
//                                                  p-processor schedule)
//   * graham_upper(g, p) = CP + (W − CP_work)/p   rearranged classic Graham
//     list-scheduling guarantee; here exposed as now-anchored upper bound
//     CP + W/p (slightly loose but O(V+E) to compute).
//
// The greedy list schedule (limited_lp) always lands between graham_bound and
// graham_upper — asserted by property tests.

#include "adg/best_effort.hpp"

namespace askel {

/// Sum of remaining work at `g.now`: pending durations plus the part of
/// running activities that is still ahead of `now`.
double remaining_work(const AdgSnapshot& g);

/// now + W/p.
TimePoint work_bound(const AdgSnapshot& g, int lp);

/// max(best-effort WCT, work bound): a lower bound on the achievable WCT
/// with `lp` workers.
TimePoint graham_bound(const AdgSnapshot& g, int lp);

/// Loose upper bound CP_tail + W/p on what greedy list scheduling can do:
/// best_effort.wct + remaining_work/lp.
TimePoint graham_upper(const AdgSnapshot& g, int lp);

}  // namespace askel
