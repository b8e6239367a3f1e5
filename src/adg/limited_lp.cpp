#include "adg/limited_lp.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace askel {

namespace {

// Min-heaps over vectors the scratch owns (std::priority_queue would own
// its container and give it back to the allocator on every call).
template <typename T>
void heap_push(std::vector<T>& h, T v) {
  h.push_back(v);
  std::push_heap(h.begin(), h.end(), std::greater<T>());
}

template <typename T>
T heap_pop(std::vector<T>& h) {
  std::pop_heap(h.begin(), h.end(), std::greater<T>());
  const T top = h.back();
  h.pop_back();
  return top;
}

}  // namespace

Schedule limited_lp(const AdgSnapshot& g, int lp) {
  LimitedLpScratch ws;
  limited_lp(g, lp, ws);
  return std::move(ws.schedule);
}

const Schedule& limited_lp(const AdgSnapshot& g, int lp, LimitedLpScratch& ws) {
  if (lp < 1) throw std::invalid_argument("limited_lp: lp must be >= 1");
  const std::size_t n = g.activities.size();
  Schedule& s = ws.schedule;
  s.entries.assign(n, ScheduleEntry{});
  s.wct = std::max(0.0, g.done_end);

  // Pass 1: fix done and running activities; collect running end times.
  std::vector<TimePoint>& running_ends = ws.running_ends;
  running_ends.clear();
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
  std::vector<TimePoint>& avail = ws.avail;
  avail.clear();
  const std::size_t reuse = std::min<std::size_t>(running_ends.size(), lp);
  for (std::size_t k = 0; k < reuse; ++k) heap_push(avail, running_ends[k]);
  for (int k = static_cast<int>(running_ends.size()); k < lp; ++k)
    heap_push(avail, g.now);

  // Pass 2: per pending activity, the number of pending predecessors not yet
  // placed (an edge per entry, so duplicate predecessors count twice) and the
  // latest end among those already fixed; plus a CSR successor list over the
  // pending-to-pending edges.
  std::vector<int>& waiting = ws.waiting;
  std::vector<TimePoint>& ready = ws.ready;
  std::vector<int>& succ_begin = ws.succ_begin;
  waiting.assign(n, 0);
  ready.assign(n, g.now);
  succ_begin.assign(n + 1, 0);
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
  std::vector<int>& succ = ws.succ;
  std::vector<int>& fill = ws.fill;
  succ.resize(succ_begin[n]);
  fill.assign(succ_begin.begin(), succ_begin.end() - 1);
  for (const Activity& a : g.activities) {
    if (a.state != ActivityState::kPending) continue;
    for (const int p : a.preds)
      if (g.activities[p].state == ActivityState::kPending)
        succ[fill[p]++] = a.id;
  }

  // Pass 3: greedy list scheduling. An activity's ready time is final once
  // its last predecessor is placed, so taking (ready time, id) in order
  // picks the earliest-ready activity, ties to the lowest id. The activities
  // ready from the start (on a wide map, nearly all of them) are sorted once
  // and consumed in order; only those a placement releases go through the
  // heap.
  std::vector<std::pair<TimePoint, int>>& ready_now = ws.ready_now;
  std::vector<std::pair<TimePoint, int>>& ready_heap = ws.ready_heap;
  ready_now.clear();
  ready_heap.clear();
  for (const Activity& a : g.activities)
    if (a.state == ActivityState::kPending && waiting[a.id] == 0)
      ready_now.emplace_back(ready[a.id], a.id);
  if (!std::is_sorted(ready_now.begin(), ready_now.end()))
    std::sort(ready_now.begin(), ready_now.end());

  std::size_t placed = 0;
  std::size_t next_now = 0;
  while (next_now < ready_now.size() || !ready_heap.empty()) {
    const bool from_heap =
        next_now == ready_now.size() ||
        (!ready_heap.empty() && ready_heap.front() < ready_now[next_now]);
    const auto [ready_t, id] = from_heap ? heap_pop(ready_heap) : ready_now[next_now++];
    const TimePoint worker_free = heap_pop(avail);
    const TimePoint start = std::max(ready_t, worker_free);
    const TimePoint end = start + g.activities[id].est_duration;
    heap_push(avail, end);
    s.entries[id] = {start, end};
    s.wct = std::max(s.wct, end);
    ++placed;
    for (int k = succ_begin[id]; k < succ_begin[id + 1]; ++k) {
      const int next = succ[k];
      ready[next] = std::max(ready[next], end);
      if (--waiting[next] == 0) heap_push(ready_heap, {ready[next], next});
    }
  }
  if (placed != pending)
    throw std::logic_error(
        "limited_lp: cycle in snapshot, not every pending activity was placed");
  return s;
}

}  // namespace askel
