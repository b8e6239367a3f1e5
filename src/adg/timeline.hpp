#pragma once
// Concurrency timelines over schedules (paper §4, Figure 2).
//
// "Optimal LP is calculated using a time-line... It shows a maximum
//  requirement of 3 active threads during the interval [75, 90). Therefore
//  the optimal LP for this example is 3 threads."

#include <utility>
#include <vector>

#include "adg/best_effort.hpp"
#include "util/time_series.hpp"

namespace askel {

/// Step function: number of simultaneously executing activities over time.
/// One sample per change point; zero-duration activities contribute nothing.
std::vector<Sample> concurrency_profile(const Schedule& s);

/// Peak of a concurrency profile (0 for an empty profile).
int peak_concurrency(const std::vector<Sample>& profile);

/// peak_concurrency(concurrency_profile(s)) without building the profile;
/// `starts` and `ends` are scratch, reused across calls.
int peak_concurrency(const Schedule& s, std::vector<TimePoint>& starts,
                     std::vector<TimePoint>& ends);

/// The paper's optimal LP: peak concurrency of the best-effort schedule,
/// including the frontier form's past (g.past_peak).
int optimal_lp(const AdgSnapshot& g);

/// The concurrency history of one run's done activities, kept sorted across
/// snapshots so the frontier form can report the best-effort profile's peak
/// before `now` without re-reading the done past. Each done activity is
/// added once; a zero-length one contributes nothing, as in the profile.
class ConcurrencyHistory {
 public:
  void add(TimePoint start, TimePoint end);
  void clear();
  /// Peak over t < now of (done activities executing at t) plus (running
  /// activities started at or before t). `running_starts` is reordered.
  int peak_before(TimePoint now, std::vector<TimePoint>& running_starts);

 private:
  /// Merge fresh_ into deltas_ and bring level_/prefix_max_ up to date.
  void refresh();

  std::vector<std::pair<TimePoint, int>> deltas_;  // sorted (time, ±1)
  std::vector<std::pair<TimePoint, int>> fresh_;   // added since refresh()
  std::vector<int> level_;       // level after deltas_[i]
  std::vector<int> prefix_max_;  // max(0, level_[0..i])
  std::size_t dirty_ = 0;        // first stale level_/prefix_max_ index
};

}  // namespace askel
