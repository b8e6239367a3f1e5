#include "adg/bounds.hpp"

#include <algorithm>

namespace askel {

double remaining_work(const AdgSnapshot& g) {
  double w = 0.0;
  for (const Activity& a : g.activities) {
    switch (a.state) {
      case ActivityState::kDone:
        break;
      case ActivityState::kRunning: {
        const double end = std::max(a.start + a.est_duration, g.now);
        w += end - g.now;
        break;
      }
      case ActivityState::kPending:
        w += a.est_duration;
        break;
    }
  }
  return w;
}

TimePoint work_bound(const AdgSnapshot& g, int lp) {
  return g.now + remaining_work(g) / std::max(1, lp);
}

TimePoint graham_bound(const AdgSnapshot& g, int lp) {
  return std::max(best_effort(g).wct, work_bound(g, lp));
}

TimePoint graham_upper(const AdgSnapshot& g, int lp) {
  // best_effort(g).wct is now + CP_tail (done activities never exceed now);
  // adding W/p yields the classic CP + W/p guarantee anchored at now.
  return best_effort(g).wct + remaining_work(g) / std::max(1, lp);
}

}  // namespace askel
