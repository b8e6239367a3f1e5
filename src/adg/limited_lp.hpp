#pragma once
// Limited-LP WCT estimation (paper §4): "Limited LP strategy is used to
// calculate the total WCT under a limit of LP. In this case LP is not
// infinite, therefore the ti calculation has an extra constraint: at any
// point of time LP should not be over the limit."
//
// Finding the true minimum-makespan schedule under a processor bound is
// NP-complete (the paper says so); like Skandium we use deterministic greedy
// list scheduling: among ready activities, the earliest-ready one (ties by
// lowest id) is placed on the earliest-free worker.
//
// The schedule is event-driven, O((V+E) log V): each pending activity keeps
// a count of unplaced predecessors, and placing an activity walks only its
// successors. An activity enters a ready heap keyed by (ready time, id) the
// moment its last predecessor is placed — its ready time can no longer
// change then — so popping the heap yields exactly the earliest-ready,
// lowest-id choice a rescan of every pending activity would make.

#include <utility>
#include <vector>

#include "adg/best_effort.hpp"

namespace askel {

/// Working storage of limited_lp. Reused across calls, it stops allocating
/// once it has seen a snapshot of the current size.
struct LimitedLpScratch {
  Schedule schedule;
  std::vector<TimePoint> running_ends;
  std::vector<TimePoint> avail;  // min-heap of worker-free times
  std::vector<TimePoint> ready;
  std::vector<int> waiting;
  std::vector<int> succ_begin;
  std::vector<int> succ;
  std::vector<int> fill;
  std::vector<std::pair<TimePoint, int>> ready_now;   // sorted, consumed in order
  std::vector<std::pair<TimePoint, int>> ready_heap;  // min-heap
};

/// Greedy list schedule of the snapshot's running+pending activities on `lp`
/// workers. Done activities keep their actual times and hold no worker;
/// running activities each hold a worker until their estimated end (they are
/// physically occupying threads and are never migrated). Throws
/// std::logic_error if a pending activity can never become ready (a cycle or
/// an out-of-range predecessor id).
Schedule limited_lp(const AdgSnapshot& g, int lp);
/// Same, computed in `ws`; returns ws.schedule.
const Schedule& limited_lp(const AdgSnapshot& g, int lp, LimitedLpScratch& ws);

}  // namespace askel
