#pragma once
// AdgSnapshot: a point-in-time Activity Dependency Graph.
//
// The tracker layer (sm/) rebuilds a snapshot on demand from the live state
// machines: done activities carry actual times, running ones their actual
// start, and the not-yet-executed remainder of the skeleton is expanded from
// the current estimates (adg/expand.*). The schedulers below then answer
// "when will this finish?" under different LP assumptions.
//
// A snapshot comes in two forms (TrackerSet::snapshot):
//  * full — every activity, done ones included (figures, the paper replay);
//  * frontier — running and pending activities only. A done activity
//    constrains the future only through its end time, which is never later
//    than `now` (the snapshot raises `now` to the latest observed end), and
//    every scheduler starts a pending activity no earlier than `now`; so done
//    predecessors drop out of `preds` and `now` is the ready floor they leave
//    behind. The two facts about the done past that the schedulers still
//    read are kept as fields: `done_end` and `past_peak`.
// Every scheduler returns bit-identical WCTs, optimal LP and decisions on
// both forms of the same tracker state.

#include <limits>
#include <span>
#include <vector>

#include "adg/activity.hpp"

namespace askel {

enum class SnapshotForm : int { kFull, kFrontier };

/// "No time": the identity of max over time points.
inline constexpr TimePoint kNoTime = -std::numeric_limits<TimePoint>::infinity();

/// Stands, in the id lists a frontier snapshot is built from, for a done
/// activity it folded away; add() drops it from an activity's preds. Lists
/// keep their full-form length, so "did a branch leave a terminal?" reads
/// the same in both forms.
inline constexpr int kFolded = -1;

struct AdgSnapshot {
  /// The observation instant (the "black box" moment of Figure 1).
  TimePoint now = 0.0;
  /// Topologically ordered: every activity's preds have smaller ids.
  std::vector<Activity> activities;
  /// True iff every running/pending activity had a t(m) estimate. The
  /// controller refuses to act on incomplete snapshots — the paper: "the
  /// system has to wait until all muscles have been executed at least once".
  bool complete_estimates = true;
  /// True when the expected-future expansion hit its size guard.
  bool truncated = false;
  /// Latest end among done activities, folded ones included (kNoTime when
  /// none is done). Bounds the WCT once nothing is left to run.
  TimePoint done_end = kNoTime;
  /// Done activities the frontier form left out of `activities` (0 in the
  /// full form). They count in size() and count(kDone).
  std::size_t folded = 0;
  /// Frontier form: peak number of activities executing at once strictly
  /// before `now` — done and running ones, as the full best-effort profile
  /// sees them. 0 in the full form, whose profile sees that past itself.
  int past_peak = 0;

  /// Append an activity, assigning its id. Predecessor ids must already be
  /// present. Returns the new id.
  int add(Activity a);
  /// Same, with `a.preds` replaced by `preds` minus kFolded entries, held in
  /// storage that clear() recycled (no allocation once a snapshot of this
  /// shape was built).
  int add(Activity a, std::span<const int> preds);
  /// Account for a done activity without materialising it (frontier form).
  void fold_done(TimePoint end);

  /// Reset to an empty snapshot, keeping storage for the next build.
  void clear();

  /// Activities in the graph this snapshot describes, folded ones included.
  std::size_t size() const { return activities.size() + folded; }
  std::size_t count(ActivityState s) const;

  /// Structural checks (topological pred order, state/time consistency).
  /// Returns an empty string when valid, else a description of the problem.
  std::string validate() const;

 private:
  std::vector<std::vector<int>> spare_preds_;
};

}  // namespace askel
