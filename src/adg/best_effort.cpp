#include "adg/best_effort.hpp"

#include <algorithm>

namespace askel {

Schedule best_effort(const AdgSnapshot& g) {
  Schedule s;
  best_effort(g, s);
  return s;
}

void best_effort(const AdgSnapshot& g, Schedule& s) {
  s.entries.resize(g.activities.size());
  s.wct = std::max(0.0, g.done_end);
  for (const Activity& a : g.activities) {
    ScheduleEntry& e = s.entries[a.id];
    switch (a.state) {
      case ActivityState::kDone:
        e.start = a.start;
        e.end = a.end;
        break;
      case ActivityState::kRunning: {
        e.start = a.start;
        // tf = ti + t(m), "but if ti + t(m) is in the past, tf = currentTime".
        e.end = std::max(a.start + a.est_duration, g.now);
        break;
      }
      case ActivityState::kPending: {
        TimePoint ready = g.now;
        for (const int p : a.preds) ready = std::max(ready, s.entries[p].end);
        // "If max(preds' tf) is in the past, ti = currentTime" — the max with
        // g.now above implements exactly that clamp.
        e.start = ready;
        e.end = std::max(ready + a.est_duration, g.now);
        break;
      }
    }
    s.wct = std::max(s.wct, e.end);
  }
}

}  // namespace askel
