#include "adg/limited_lp.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

namespace askel {

namespace {

/// Min-heap of T (smallest on top).
template <typename T>
using MinHeap = std::priority_queue<T, std::vector<T>, std::greater<T>>;

}  // namespace

Schedule limited_lp(const AdgSnapshot& g, int lp) {
  if (lp < 1) throw std::invalid_argument("limited_lp: lp must be >= 1");
  const std::size_t n = g.activities.size();
  Schedule s;
  s.entries.resize(n);

  // Pass 1: fix done and running activities; collect running end times.
  std::vector<TimePoint> running_ends;
  for (const Activity& a : g.activities) {
    if (a.state == ActivityState::kDone) {
      s.entries[a.id] = {a.start, a.end};
      s.wct = std::max(s.wct, a.end);
    } else if (a.state == ActivityState::kRunning) {
      const TimePoint end = std::max(a.start + a.est_duration, g.now);
      s.entries[a.id] = {a.start, end};
      running_ends.push_back(end);
      s.wct = std::max(s.wct, end);
    }
  }

  // Worker availability. Running activities physically occupy threads; if
  // more are running than `lp` (the controller just shrank the pool), the
  // surplus threads park when they finish, so only the `lp`
  // earliest-finishing slots rejoin the pool.
  std::sort(running_ends.begin(), running_ends.end());
  MinHeap<TimePoint> avail;
  const std::size_t reuse = std::min<std::size_t>(running_ends.size(), lp);
  for (std::size_t k = 0; k < reuse; ++k) avail.push(running_ends[k]);
  for (int k = static_cast<int>(running_ends.size()); k < lp; ++k)
    avail.push(g.now);

  // Pass 2: per pending activity, the number of pending predecessors not yet
  // placed (an edge per entry, so duplicate predecessors count twice) and the
  // latest end among those already fixed; plus a CSR successor list over the
  // pending-to-pending edges.
  std::vector<int> waiting(n, 0);
  std::vector<TimePoint> ready(n, g.now);
  std::vector<int> succ_begin(n + 1, 0);
  std::size_t pending = 0;
  for (const Activity& a : g.activities) {
    if (a.state != ActivityState::kPending) continue;
    ++pending;
    for (const int p : a.preds) {
      if (p < 0 || static_cast<std::size_t>(p) >= n)
        throw std::logic_error("limited_lp: dangling predecessor in snapshot");
      if (g.activities[p].state == ActivityState::kPending) {
        ++waiting[a.id];
        ++succ_begin[p + 1];
      } else {
        ready[a.id] = std::max(ready[a.id], s.entries[p].end);
      }
    }
  }
  for (std::size_t k = 0; k < n; ++k) succ_begin[k + 1] += succ_begin[k];
  std::vector<int> succ(succ_begin[n]);
  std::vector<int> fill(succ_begin.begin(), succ_begin.end() - 1);
  for (const Activity& a : g.activities) {
    if (a.state != ActivityState::kPending) continue;
    for (const int p : a.preds)
      if (g.activities[p].state == ActivityState::kPending)
        succ[fill[p]++] = a.id;
  }

  // Pass 3: greedy list scheduling. An activity's ready time is final once
  // its last predecessor is placed, so popping (ready time, id) in order
  // picks the earliest-ready activity, ties to the lowest id.
  MinHeap<std::pair<TimePoint, int>> ready_heap;
  for (const Activity& a : g.activities)
    if (a.state == ActivityState::kPending && waiting[a.id] == 0)
      ready_heap.emplace(ready[a.id], a.id);

  std::size_t placed = 0;
  while (!ready_heap.empty()) {
    const auto [ready_t, id] = ready_heap.top();
    ready_heap.pop();
    const TimePoint worker_free = avail.top();
    avail.pop();
    const TimePoint start = std::max(ready_t, worker_free);
    const TimePoint end = start + g.activities[id].est_duration;
    avail.push(end);
    s.entries[id] = {start, end};
    s.wct = std::max(s.wct, end);
    ++placed;
    for (int k = succ_begin[id]; k < succ_begin[id + 1]; ++k) {
      const int next = succ[k];
      ready[next] = std::max(ready[next], end);
      if (--waiting[next] == 0) ready_heap.emplace(ready[next], next);
    }
  }
  if (placed != pending)
    throw std::logic_error(
        "limited_lp: cycle in snapshot, not every pending activity was placed");
  return s;
}

}  // namespace askel
