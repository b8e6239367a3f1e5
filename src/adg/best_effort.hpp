#pragma once
// Best-effort WCT estimation (paper §4): assume infinite LP.
//
//   ti = max over predecessors a of a.tf   (or currentTime if in the past)
//   tf = ti + t(m)                         (or currentTime if in the past)
//
// The best-effort WCT is the end time of the last activity; the peak of its
// concurrency profile is the paper's "optimal LP" (Figure 2: 3 threads).

#include "adg/snapshot.hpp"

namespace askel {

struct ScheduleEntry {
  TimePoint start = 0.0;
  TimePoint end = 0.0;
};

struct Schedule {
  /// Per-activity start/end, indexed by activity id.
  std::vector<ScheduleEntry> entries;
  /// Max end over all activities, folded done ones included (absolute time,
  /// same epoch as snapshot.now; never below 0).
  TimePoint wct = 0.0;
};

/// Best-effort schedule of a snapshot (infinite LP).
Schedule best_effort(const AdgSnapshot& g);
/// Same, into `s`, reusing its storage.
void best_effort(const AdgSnapshot& g, Schedule& s);

}  // namespace askel
