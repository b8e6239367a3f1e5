#include "adg/timeline.hpp"

#include <algorithm>
#include <utility>

#include "adg/best_effort.hpp"

namespace askel {

namespace {

bool before_time(const std::pair<TimePoint, int>& d, TimePoint t) {
  return d.first < t;
}
bool time_before(TimePoint t, const std::pair<TimePoint, int>& d) {
  return t < d.first;
}

}  // namespace

std::vector<Sample> concurrency_profile(const Schedule& s) {
  // Sum +1/-1 deltas per time point; ends cancel starts at the same instant,
  // which also erases zero-duration activities.
  std::vector<std::pair<TimePoint, int>> delta;
  delta.reserve(2 * s.entries.size());
  for (const ScheduleEntry& e : s.entries) {
    if (e.end <= e.start) continue;
    delta.emplace_back(e.start, 1);
    delta.emplace_back(e.end, -1);
  }
  std::sort(delta.begin(), delta.end());
  std::vector<Sample> profile;
  int level = 0;
  for (std::size_t k = 0; k < delta.size();) {
    const TimePoint t = delta[k].first;
    int d = 0;
    for (; k < delta.size() && delta[k].first == t; ++k) d += delta[k].second;
    if (d == 0) continue;
    level += d;
    profile.push_back(Sample{t, static_cast<double>(level)});
  }
  return profile;
}

int peak_concurrency(const std::vector<Sample>& profile) {
  double peak = 0.0;
  for (const Sample& s : profile) peak = std::max(peak, s.value);
  return static_cast<int>(peak);
}

int peak_concurrency(const Schedule& s, std::vector<TimePoint>& starts,
                     std::vector<TimePoint>& ends) {
  // The level after each time point is (starts so far) - (ends so far); the
  // peak is reached right after some start.
  starts.clear();
  ends.clear();
  for (const ScheduleEntry& e : s.entries) {
    if (e.end <= e.start) continue;
    starts.push_back(e.start);
    ends.push_back(e.end);
  }
  std::sort(starts.begin(), starts.end());
  std::sort(ends.begin(), ends.end());
  int peak = 0;
  std::size_t ended = 0;
  for (std::size_t k = 0; k < starts.size();) {
    const TimePoint t = starts[k];
    for (; k < starts.size() && starts[k] == t; ++k) {}
    for (; ended < ends.size() && ends[ended] <= t; ++ended) {}
    peak = std::max(peak, static_cast<int>(k - ended));
  }
  return peak;
}

int optimal_lp(const AdgSnapshot& g) {
  std::vector<TimePoint> starts;
  std::vector<TimePoint> ends;
  return std::max(g.past_peak, peak_concurrency(best_effort(g), starts, ends));
}

// ----------------------------------------------------- ConcurrencyHistory --

void ConcurrencyHistory::add(TimePoint start, TimePoint end) {
  if (end <= start) return;
  fresh_.emplace_back(start, 1);
  fresh_.emplace_back(end, -1);
}

void ConcurrencyHistory::clear() {
  deltas_.clear();
  fresh_.clear();
  level_.clear();
  prefix_max_.clear();
  dirty_ = 0;
}

void ConcurrencyHistory::refresh() {
  if (!fresh_.empty()) {
    // Activities finish in roughly time order, so the fresh points land near
    // the end: merge from the back, touching only the tail they interleave.
    std::sort(fresh_.begin(), fresh_.end());
    std::size_t i = deltas_.size();
    std::size_t j = fresh_.size();
    std::size_t w = i + j;
    deltas_.resize(w);
    while (j > 0) {
      if (i > 0 && fresh_[j - 1] < deltas_[i - 1]) {
        deltas_[--w] = deltas_[--i];
      } else {
        deltas_[--w] = fresh_[--j];
      }
    }
    dirty_ = std::min(dirty_, w);
    fresh_.clear();
  }
  const std::size_t n = deltas_.size();
  level_.resize(n);
  prefix_max_.resize(n);
  for (std::size_t k = dirty_; k < n; ++k) {
    level_[k] = (k > 0 ? level_[k - 1] : 0) + deltas_[k].second;
    prefix_max_[k] = std::max(k > 0 ? prefix_max_[k - 1] : 0, level_[k]);
  }
  dirty_ = n;
}

int ConcurrencyHistory::peak_before(TimePoint now,
                                    std::vector<TimePoint>& running_starts) {
  refresh();
  // H(t) = S(t) + R(t): S counts done activities executing at t (the levels
  // above), R(t) the running activities started at or before t. With the
  // running starts r_1 <= ... <= r_k before now, R is j on [r_j, r_{j+1}),
  // so the peak is the larger of max S before r_1 and, for each j,
  // j + max S over [r_j, now): on that range R >= j, and any t reaches its
  // own R(t) = j term.
  std::erase_if(running_starts, [now](TimePoint r) { return !(r < now); });
  std::sort(running_starts.begin(), running_starts.end());
  const auto begin = deltas_.begin();
  auto prefix = [&](std::size_t end) { return end > 0 ? prefix_max_[end - 1] : 0; };
  const std::size_t e = static_cast<std::size_t>(
      std::lower_bound(begin, deltas_.end(), now, before_time) - begin);
  if (running_starts.empty()) return prefix(e);
  const std::size_t first = static_cast<std::size_t>(
      std::lower_bound(begin, deltas_.end(), running_starts.front(), before_time) -
      begin);
  int peak = prefix(first);
  // Walk j downwards; `tail` is max S over the points after r_j and before now.
  int tail = 0;
  std::size_t p = e;
  for (std::size_t j = running_starts.size(); j > 0; --j) {
    const std::size_t u = static_cast<std::size_t>(
        std::upper_bound(begin, begin + static_cast<std::ptrdiff_t>(e),
                         running_starts[j - 1], time_before) -
        begin);
    for (; p > u; --p) tail = std::max(tail, level_[p - 1]);
    const int at_rj = u > 0 ? level_[u - 1] : 0;
    peak = std::max(peak, static_cast<int>(j) + std::max(at_rj, tail));
  }
  return peak;
}

}  // namespace askel
