#include "adg/snapshot.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace askel {

int AdgSnapshot::add(Activity a) {
  a.id = static_cast<int>(activities.size());
  for (const int p : a.preds) {
    if (p < 0 || p >= a.id)
      throw std::invalid_argument("AdgSnapshot::add: predecessor id out of order");
  }
  if (!a.has_estimate && a.state != ActivityState::kDone) complete_estimates = false;
  if (a.state == ActivityState::kDone) done_end = std::max(done_end, a.end);
  activities.push_back(std::move(a));
  return static_cast<int>(activities.size()) - 1;
}

int AdgSnapshot::add(Activity a, std::span<const int> preds) {
  const auto kept = std::count_if(preds.begin(), preds.end(),
                                  [](int p) { return p != kFolded; });
  if (kept > 0 && !spare_preds_.empty()) {
    a.preds = std::move(spare_preds_.back());
    spare_preds_.pop_back();
  }
  a.preds.clear();
  a.preds.reserve(static_cast<std::size_t>(kept));
  for (const int p : preds)
    if (p != kFolded) a.preds.push_back(p);
  return add(std::move(a));
}

void AdgSnapshot::fold_done(TimePoint end) {
  ++folded;
  done_end = std::max(done_end, end);
}

void AdgSnapshot::clear() {
  for (Activity& a : activities) {
    if (a.preds.capacity() == 0) continue;
    a.preds.clear();
    spare_preds_.push_back(std::move(a.preds));
  }
  activities.clear();
  now = 0.0;
  complete_estimates = true;
  truncated = false;
  done_end = kNoTime;
  folded = 0;
  past_peak = 0;
}

std::size_t AdgSnapshot::count(ActivityState s) const {
  std::size_t n = s == ActivityState::kDone ? folded : 0;
  for (const Activity& a : activities) n += (a.state == s);
  return n;
}

std::string AdgSnapshot::validate() const {
  std::ostringstream err;
  for (std::size_t i = 0; i < activities.size(); ++i) {
    const Activity& a = activities[i];
    if (a.id != static_cast<int>(i)) {
      err << "activity " << i << ": id mismatch";
      return err.str();
    }
    for (const int p : a.preds) {
      if (p < 0 || p >= a.id) {
        err << "activity " << i << ": bad pred " << p;
        return err.str();
      }
    }
    switch (a.state) {
      case ActivityState::kDone:
        if (a.end < a.start) {
          err << "activity " << i << ": done with end < start";
          return err.str();
        }
        if (a.end > now) {
          err << "activity " << i << ": done in the future";
          return err.str();
        }
        break;
      case ActivityState::kRunning:
        if (a.start > now) {
          err << "activity " << i << ": running but started in the future";
          return err.str();
        }
        break;
      case ActivityState::kPending:
        if (a.est_duration < 0) {
          err << "activity " << i << ": negative estimate";
          return err.str();
        }
        break;
    }
  }
  if (done_end > now) return "a folded activity ended in the future";
  return {};
}

}  // namespace askel
