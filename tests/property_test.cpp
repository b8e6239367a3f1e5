// Property-based tests: invariants of the schedulers over randomized DAGs
// (seeded, deterministic), parameterized sweeps of the estimator family, and
// the exactness of the controller's warming skip and frontier snapshots over
// random skeletons.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>

#include "adg/best_effort.hpp"
#include "adg/limited_lp.hpp"
#include "adg/timeline.hpp"
#include "autonomic/decision.hpp"
#include "est/estimator.hpp"
#include "est/ewma.hpp"
#include "events/listener.hpp"
#include "skel/engine.hpp"
#include "skel/nodes.hpp"
#include "sm/tracker_set.hpp"

namespace askel {
namespace {

/// Random pending-only DAG: each activity may depend on a few earlier ones.
AdgSnapshot random_dag(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dur(0.1, 5.0);
  std::uniform_int_distribution<int> npreds(0, 3);
  AdgSnapshot g;
  g.now = 0.0;
  for (int k = 0; k < n; ++k) {
    std::vector<int> preds;
    if (k > 0) {
      const int want = npreds(rng);
      std::uniform_int_distribution<int> pick(0, k - 1);
      for (int j = 0; j < want; ++j) preds.push_back(pick(rng));
      std::sort(preds.begin(), preds.end());
      preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
    }
    g.add(make_pending(0, "x", dur(rng), std::move(preds)));
  }
  return g;
}

/// Random DAG with a mix of done / running / pending states at now=10.
AdgSnapshot random_mixed_dag(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dur(0.1, 4.0);
  AdgSnapshot g;
  g.now = 10.0;
  // A prefix of done activities (finished before now), then running, then
  // pending — which automatically keeps preds consistent with states.
  const int done = n / 3, running = n / 3;
  for (int k = 0; k < n; ++k) {
    std::vector<int> preds;
    if (k > 0) {
      std::uniform_int_distribution<int> pick(0, k - 1);
      // Done/running activities may only depend on done ones.
      const int limit = k < done + running ? std::min(k, done) : k;
      if (limit > 0) {
        std::uniform_int_distribution<int> p2(0, limit - 1);
        preds.push_back(p2(rng));
      }
    }
    if (k < done) {
      const double s = std::uniform_real_distribution<double>(0.0, 4.0)(rng);
      g.add(make_done(0, "d", s, s + dur(rng), std::move(preds)));
    } else if (k < done + running) {
      const double s = std::uniform_real_distribution<double>(6.0, 10.0)(rng);
      g.add(make_running(0, "r", s, dur(rng), std::move(preds)));
    } else {
      g.add(make_pending(0, "p", dur(rng), std::move(preds)));
    }
  }
  return g;
}

class SchedulerProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerProperties, LimitedLpNeverBeatsBestEffort) {
  const AdgSnapshot g = random_dag(GetParam(), 24);
  const double be = best_effort(g).wct;
  for (int k = 1; k <= 8; ++k) EXPECT_GE(limited_lp(g, k).wct + 1e-9, be);
}

TEST_P(SchedulerProperties, LimitedLpWctIsNonIncreasingInLp) {
  const AdgSnapshot g = random_dag(GetParam(), 24);
  double prev = limited_lp(g, 1).wct;
  for (int k = 2; k <= 10; ++k) {
    const double cur = limited_lp(g, k).wct;
    EXPECT_LE(cur, prev + 1e-9) << "lp=" << k;
    prev = cur;
  }
}

TEST_P(SchedulerProperties, SingleWorkerEqualsTotalWork) {
  const AdgSnapshot g = random_dag(GetParam(), 16);
  double total = 0.0;
  for (const Activity& a : g.activities) total += a.est_duration;
  EXPECT_NEAR(limited_lp(g, 1).wct, total, 1e-9);
}

TEST_P(SchedulerProperties, AbundantWorkersMatchBestEffort) {
  const AdgSnapshot g = random_dag(GetParam(), 20);
  EXPECT_NEAR(limited_lp(g, 20).wct, best_effort(g).wct, 1e-9);
}

TEST_P(SchedulerProperties, LimitedScheduleRespectsDependencies) {
  const AdgSnapshot g = random_dag(GetParam(), 24);
  const Schedule s = limited_lp(g, 3);
  for (const Activity& a : g.activities) {
    for (const int p : a.preds) {
      EXPECT_GE(s.entries[a.id].start + 1e-9, s.entries[p].end);
    }
  }
}

TEST_P(SchedulerProperties, LimitedScheduleRespectsCapacity) {
  const AdgSnapshot g = random_dag(GetParam(), 24);
  for (const int lp : {1, 2, 3, 5}) {
    const Schedule s = limited_lp(g, lp);
    EXPECT_LE(peak_concurrency(concurrency_profile(s)), lp);
  }
}

TEST_P(SchedulerProperties, BestEffortRespectsDependencies) {
  const AdgSnapshot g = random_dag(GetParam(), 24);
  const Schedule s = best_effort(g);
  for (const Activity& a : g.activities) {
    for (const int p : a.preds) {
      EXPECT_GE(s.entries[a.id].start + 1e-9, s.entries[p].end);
    }
  }
}

TEST_P(SchedulerProperties, NothingScheduledBeforeNow) {
  const AdgSnapshot g = random_mixed_dag(GetParam(), 24);
  ASSERT_TRUE(g.validate().empty()) << g.validate();
  for (const Schedule& s : {best_effort(g), limited_lp(g, 2)}) {
    for (const Activity& a : g.activities) {
      if (a.state == ActivityState::kPending) {
        EXPECT_GE(s.entries[a.id].start + 1e-9, g.now);
      }
    }
  }
}

TEST_P(SchedulerProperties, MixedStateSchedulesAreConsistent) {
  const AdgSnapshot g = random_mixed_dag(GetParam(), 24);
  const double be = best_effort(g).wct;
  double prev = limited_lp(g, 1).wct;
  EXPECT_GE(prev + 1e-9, be);
  for (int k = 2; k <= 6; ++k) {
    const double cur = limited_lp(g, k).wct;
    EXPECT_LE(cur, prev + 1e-9);
    prev = cur;
  }
}

TEST_P(SchedulerProperties, DoneAndRunningTimesAreFixedFacts) {
  const AdgSnapshot g = random_mixed_dag(GetParam(), 18);
  for (const Schedule& s : {best_effort(g), limited_lp(g, 4)}) {
    for (const Activity& a : g.activities) {
      if (a.state == ActivityState::kDone) {
        EXPECT_DOUBLE_EQ(s.entries[a.id].start, a.start);
        EXPECT_DOUBLE_EQ(s.entries[a.id].end, a.end);
      } else if (a.state == ActivityState::kRunning) {
        EXPECT_DOUBLE_EQ(s.entries[a.id].start, a.start);
        EXPECT_GE(s.entries[a.id].end, g.now);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperties,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ------------------------------------------------ scheduler oracles --

/// The scan-based list schedule limited_lp replaced: every placement rescans
/// every pending activity for the earliest-ready one (ties by id). O(V²·deg);
/// kept only as the oracle the event-driven schedule must match bit for bit.
Schedule limited_lp_reference(const AdgSnapshot& g, int lp) {
  const std::size_t n = g.activities.size();
  Schedule s;
  s.entries.resize(n);
  std::vector<TimePoint> running_ends;
  std::vector<char> scheduled(n, 0);
  for (const Activity& a : g.activities) {
    if (a.state == ActivityState::kDone) {
      s.entries[a.id] = {a.start, a.end};
      scheduled[a.id] = 1;
      s.wct = std::max(s.wct, a.end);
    } else if (a.state == ActivityState::kRunning) {
      const TimePoint end = std::max(a.start + a.est_duration, g.now);
      s.entries[a.id] = {a.start, end};
      scheduled[a.id] = 1;
      running_ends.push_back(end);
      s.wct = std::max(s.wct, end);
    }
  }
  std::sort(running_ends.begin(), running_ends.end());
  std::multiset<TimePoint> avail;
  const std::size_t reuse = std::min<std::size_t>(running_ends.size(), lp);
  for (std::size_t k = 0; k < reuse; ++k) avail.insert(running_ends[k]);
  for (int k = static_cast<int>(running_ends.size()); k < lp; ++k)
    avail.insert(g.now);
  std::vector<int> pending;
  for (const Activity& a : g.activities)
    if (a.state == ActivityState::kPending) pending.push_back(a.id);
  std::vector<char> placed(n, 0);
  for (std::size_t left = pending.size(); left > 0; --left) {
    int best = -1;
    TimePoint best_ready = 0.0;
    for (const int id : pending) {
      if (placed[id]) continue;
      bool ready = true;
      TimePoint ready_t = g.now;
      for (const int p : g.activities[id].preds) {
        if (!scheduled[p]) {
          ready = false;
          break;
        }
        ready_t = std::max(ready_t, s.entries[p].end);
      }
      if (ready && (best == -1 || ready_t < best_ready)) {
        best = id;
        best_ready = ready_t;
      }
    }
    if (best == -1) ADD_FAILURE() << "reference: no ready activity";
    if (best == -1) return s;
    const TimePoint worker_free = *avail.begin();
    avail.erase(avail.begin());
    const TimePoint start = std::max(best_ready, worker_free);
    const TimePoint end = start + g.activities[best].est_duration;
    avail.insert(end);
    s.entries[best] = {start, end};
    scheduled[best] = 1;
    placed[best] = 1;
    s.wct = std::max(s.wct, end);
  }
  return s;
}

/// The std::map concurrency profile the sort-based one replaced.
std::vector<Sample> concurrency_profile_reference(const Schedule& s) {
  std::map<TimePoint, int> delta;
  for (const ScheduleEntry& e : s.entries) {
    if (e.end <= e.start) continue;
    delta[e.start] += 1;
    delta[e.end] -= 1;
  }
  std::vector<Sample> profile;
  int level = 0;
  for (const auto& [t, d] : delta) {
    if (d == 0) continue;
    level += d;
    profile.push_back(Sample{t, static_cast<double>(level)});
  }
  return profile;
}

/// Random snapshot at now=10 with states interleaved by id, integer times
/// (so ready times, worker-free times and profile points tie often),
/// zero-length durations and duplicate predecessors. Done and running
/// activities depend only on done ones; pending ones on anything earlier.
AdgSnapshot random_oracle_dag(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto uni = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  AdgSnapshot g;
  g.now = 10.0;
  const int n = uni(1, 40);
  std::vector<int> done_ids;
  for (int k = 0; k < n; ++k) {
    const int roll = uni(0, 9);
    const ActivityState state = roll < 3   ? ActivityState::kDone
                                : roll < 5 ? ActivityState::kRunning
                                           : ActivityState::kPending;
    std::vector<int> preds;
    const int want = uni(0, 3);
    for (int j = 0; j < want && k > 0; ++j) {
      if (state == ActivityState::kPending) {
        preds.push_back(uni(0, k - 1));
      } else if (!done_ids.empty()) {
        preds.push_back(done_ids[uni(0, static_cast<int>(done_ids.size()) - 1)]);
      }
    }
    if (!preds.empty() && uni(0, 4) == 0) preds.push_back(preds.front());
    if (state == ActivityState::kDone) {
      TimePoint ready = 0.0;
      for (const int p : preds) ready = std::max(ready, g.activities[p].end);
      const TimePoint start = ready + uni(0, 2);
      done_ids.push_back(g.add(make_done(0, "d", start, start + uni(0, 3), preds)));
    } else if (state == ActivityState::kRunning) {
      g.add(make_running(0, "r", uni(0, 10), uni(0, 12), preds));
    } else {
      g.add(make_pending(0, "p", uni(0, 5), preds));
    }
  }
  return g;
}

bool same_bits(const Schedule& a, const Schedule& b) {
  return a.entries.size() == b.entries.size() &&
         std::memcmp(&a.wct, &b.wct, sizeof a.wct) == 0 &&
         (a.entries.empty() ||
          std::memcmp(a.entries.data(), b.entries.data(),
                      a.entries.size() * sizeof(ScheduleEntry)) == 0);
}

TEST(SchedulerOracle, LimitedLpMatchesTheScanBitForBit) {
  constexpr std::uint64_t kGraphs = 12000;
  for (std::uint64_t seed = 1; seed <= kGraphs; ++seed) {
    const AdgSnapshot g = random_oracle_dag(seed);
    for (int lp = 1; lp <= 8; ++lp) {
      const Schedule fast = limited_lp(g, lp);
      const Schedule ref = limited_lp_reference(g, lp);
      ASSERT_TRUE(same_bits(fast, ref)) << "seed=" << seed << " lp=" << lp;
    }
  }
}

TEST(SchedulerOracle, ConcurrencyProfileMatchesTheMapBitForBit) {
  constexpr std::uint64_t kGraphs = 12000;
  for (std::uint64_t seed = 1; seed <= kGraphs; ++seed) {
    const AdgSnapshot g = random_oracle_dag(seed);
    const int lp = static_cast<int>(1 + seed % 8);
    for (const Schedule& s : {best_effort(g), limited_lp(g, lp)}) {
      const std::vector<Sample> fast = concurrency_profile(s);
      const std::vector<Sample> ref = concurrency_profile_reference(s);
      std::vector<TimePoint> starts;
      std::vector<TimePoint> ends;
      ASSERT_EQ(peak_concurrency(s, starts, ends), peak_concurrency(ref))
          << "seed=" << seed;
      ASSERT_EQ(fast.size(), ref.size()) << "seed=" << seed;
      ASSERT_TRUE(fast.empty() || std::memcmp(fast.data(), ref.data(),
                                              fast.size() * sizeof(Sample)) == 0)
          << "seed=" << seed;
    }
  }
}

TEST(SchedulerOracle, CycleIsALoudError) {
  AdgSnapshot g;
  g.add(make_pending(0, "a", 1.0, {}));
  g.add(make_pending(0, "b", 1.0, {0}));
  g.activities[0].preds = {1};  // a <-> b: neither can ever become ready
  EXPECT_THROW(limited_lp(g, 2), std::logic_error);
  g.activities[0].preds = {7};  // out of range
  EXPECT_THROW(limited_lp(g, 2), std::logic_error);
}

// ------------------------------------------- warming-skip exactness oracle --
//
// A warming controller skips the ADG rebuild while the TrackerSet's
// resolution stamp (registry coverage version, tracker resolution epoch) is
// unchanged since a snapshot that lacked an estimate and was not truncated.
// The oracle runs seeded random skeletons over all nine kinds at LP 1,
// records their event streams, replays each into fresh trackers, and at
// every After event checks that such an unchanged stamp really implies a
// fresh snapshot is still incomplete.

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t value_of(const Any& a) { return std::any_cast<std::uint64_t>(a); }

/// Seeded random skeleton. Payloads are uint64 hashes; every muscle's
/// outcome (split cardinality 0..3, condition result) is a hash of its
/// input, and While/d&C conditions stop saying `true` after a per-node
/// budget so every run terminates.
class RandomSkeleton {
 public:
  RandomSkeleton(std::uint64_t seed, int depth) : rng_(seed) { root = node(depth); }

  NodePtr root;
  std::vector<const Muscle*> muscles;

 private:
  int uni(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng_); }
  std::uint64_t salt() { return rng_(); }

  ExecPtr fe() {
    const std::uint64_t k = salt();
    auto m = std::make_shared<const ExecuteMuscle>(
        "fe", [k](Any p) { return Any(mix64(value_of(p) ^ k)); });
    muscles.push_back(m.get());
    return m;
  }
  SplitPtr fs() {
    const std::uint64_t k = salt();
    auto m = std::make_shared<const SplitMuscle>("fs", [k](Any p) {
      const std::uint64_t h = mix64(value_of(p) ^ k);
      AnyVec parts;
      for (std::uint64_t i = 0; i < h % 4; ++i) parts.emplace_back(mix64(h + i));
      return parts;
    });
    muscles.push_back(m.get());
    return m;
  }
  MergePtr fm() {
    const std::uint64_t k = salt();
    auto m = std::make_shared<const MergeMuscle>("fm", [k](AnyVec parts) {
      std::uint64_t h = k;
      for (const Any& a : parts) h = mix64(h ^ value_of(a));
      return Any(h);
    });
    muscles.push_back(m.get());
    return m;
  }
  /// `budget` < 0: unbounded (If); else at most `budget` true results.
  CondPtr fc(int budget) {
    const std::uint64_t k = salt();
    auto trues = std::make_shared<int>(0);
    auto m = std::make_shared<const ConditionMuscle>(
        "fc", [k, budget, trues](const Any& p) {
          if (budget >= 0 && *trues >= budget) return false;
          const bool r = (mix64(value_of(p) ^ k) & 1) != 0;
          *trues += r;
          return r;
        });
    muscles.push_back(m.get());
    return m;
  }

  NodePtr node(int depth) {
    switch (depth == 0 ? 0 : uni(0, 8)) {
      case 1: return std::make_shared<FarmNode>(node(depth - 1));
      case 2: return std::make_shared<PipeNode>(node(depth - 1), node(depth - 1));
      case 3: return std::make_shared<WhileNode>(fc(3), node(depth - 1));
      case 4: return std::make_shared<ForNode>(uni(0, 2), node(depth - 1));
      case 5:
        return std::make_shared<IfNode>(fc(-1), node(depth - 1), node(depth - 1));
      case 6: return std::make_shared<MapNode>(fs(), node(depth - 1), fm());
      case 7: {
        std::vector<NodePtr> branches;
        for (int b = uni(1, 3); b > 0; --b) branches.push_back(node(depth - 1));
        return std::make_shared<ForkNode>(fs(), std::move(branches), fm());
      }
      case 8: return std::make_shared<DacNode>(fc(3), fs(), node(depth - 1), fm());
      default: return std::make_shared<SeqNode>(fe());
    }
  }

  std::mt19937_64 rng_;
};

/// Every event of one run of `sk` at `lp` workers, in delivery order.
std::vector<Event> record_run(const RandomSkeleton& sk, std::uint64_t input,
                              int lp = 1) {
  ResizableThreadPool pool(lp, lp);
  EventBus bus;
  std::mutex mu;
  std::vector<Event> events;
  bus.add_listener(std::make_shared<ObserverListener>([&](const Event& e) {
    std::lock_guard lock(mu);
    events.push_back(e);
  }));
  Engine engine(pool, bus);
  engine.run(sk.root, Any(input))->get();
  std::lock_guard lock(mu);
  return events;
}

struct OracleConfig {
  EstimationScope scope;
  bool partial;  // half the estimates initialised, tiny expansion limits
};

/// Replays `events` and returns the number of After events at which the
/// stamp was unchanged since an incomplete snapshot (each one checked).
long check_warming_skip(const RandomSkeleton& sk, const std::vector<Event>& events,
                        const OracleConfig& cfg, std::uint64_t seed) {
  EstimateRegistry reg(0.5, cfg.scope);
  TrackerSet ts(reg);
  if (cfg.partial) {
    std::mt19937_64 rng(seed);
    for (const Muscle* m : sk.muscles) {
      if (rng() & 1) reg.init_duration(m->id(), 1.0 + static_cast<double>(rng() % 4));
      if (m->kind() != MuscleKind::kExecute && m->kind() != MuscleKind::kMerge &&
          (rng() & 1)) {
        reg.init_cardinality(m->id(), static_cast<double>(rng() % 4));
      }
    }
    ts.limits.max_activities = 4 + rng() % 29;
    ts.limits.max_depth = 1 + static_cast<int>(rng() % 4);
  }
  // A plain flag and value rather than std::optional: GCC 12 at -O2 reports
  // a maybe-uninitialized read inside optional's operator== here.
  bool warming = false;
  ResolutionStamp warming_stamp;
  long skips = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    ts.on_event(events[i]);
    if (events[i].when != When::kAfter) continue;
    const ResolutionStamp stamp = ts.resolution_stamp();
    const AdgSnapshot g = ts.snapshot(events[i].timestamp);
    const bool incomplete = !g.activities.empty() && !g.complete_estimates;
    if (warming && warming_stamp == stamp) {
      ++skips;
      EXPECT_TRUE(incomplete)
          << "seed=" << seed << " scope=" << static_cast<int>(cfg.scope)
          << " partial=" << cfg.partial << " event " << i << " ("
          << to_string(events[i].where) << "): stamp unchanged since an "
          << "incomplete snapshot, yet the fresh one is complete";
    }
    warming = incomplete && !g.truncated;
    warming_stamp = stamp;
  }
  return skips;
}

TEST(WarmingSkipOracle, UnchangedStampProvesTheSnapshotStillIncomplete) {
  constexpr std::uint64_t kSkeletons = 5000;
  long skips = 0;
  for (std::uint64_t seed = 1; seed <= kSkeletons; ++seed) {
    const RandomSkeleton sk(seed, 1 + static_cast<int>(seed % 4));
    const std::vector<Event> events = record_run(sk, mix64(seed));
    for (const EstimationScope scope :
         {EstimationScope::kAggregate, EstimationScope::kPerDepth}) {
      for (const bool partial : {false, true}) {
        skips += check_warming_skip(sk, events, {scope, partial}, seed);
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
  // The property must not hold vacuously.
  EXPECT_GT(skips, 10000);
}

// ------------------------------------------ frontier snapshot exactness --
//
// The controller plans on the frontier form of a snapshot: running and
// pending activities only, done ones folded into `done_end` and
// `past_peak`. The oracle replays seeded random skeletons over all nine
// kinds into one TrackerSet and, at every After event, checks that the full
// and the frontier form give bit-identical schedules and decisions. Runs are recorded at LP 1 (a
// deterministic stream) and at LP 4; timestamps are re-quantised to integer
// ticks on most seeds so that ties and zero-length muscles abound. Some
// seeds postpone muscle completions, so more muscles run at once than the
// small LPs plan for; a few re-deliver earlier Before events out of order,
// which replaces records a frontier snapshot already folded or attaches new
// instances to finished ones, and some lose a nested instance's events.

bool same_time(TimePoint a, TimePoint b) { return std::memcmp(&a, &b, sizeof a) == 0; }

struct FrontierCounts {
  long snapshots = 0;
  long truncated = 0;
  long crowded = 0;       // more running activities than the smallest LP
  long lp1_crowded = 0;   // ... in streams recorded at LP 1 (deterministic)
  long zero_length = 0;   // snapshots with a zero-length done activity
  long past_peaks = 0;    // frontier past_peak above its own profile's peak
};

void check_frontier(const RandomSkeleton& sk, std::vector<Event> events, bool lp1,
                    const OracleConfig& cfg, std::uint64_t seed,
                    FrontierCounts& counts) {
  std::mt19937_64 rng(mix64(seed) ^ 0xf00d);
  if (seed % 4 != 0) {
    // Integer ticks: 1-3 consecutive events share a time stamp.
    const std::uint64_t per_tick = 1 + seed % 3;
    for (std::size_t i = 0; i < events.size(); ++i) {
      events[i].timestamp = static_cast<double>(i / per_tick);
    }
  }
  if (seed % 5 == 0) {
    // Postpone some muscle completions: several muscles run at once.
    for (std::size_t i = events.size(); i-- > 0;) {
      if (events[i].when != When::kAfter || events[i].where != Where::kExecute) {
        continue;
      }
      const std::size_t to = std::min(events.size() - 1, i + 1 + rng() % 12);
      std::rotate(events.begin() + static_cast<std::ptrdiff_t>(i),
                  events.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  events.begin() + static_cast<std::ptrdiff_t>(to) + 1);
    }
  }
  if (seed % 11 == 0) {
    // Lose every event of one nested instance: its parent finishes without it.
    const Event& victim = events[rng() % events.size()];
    if (victim.parent_exec_id >= 0) {
      const std::int64_t id = victim.exec_id;
      std::erase_if(events, [id](const Event& e) { return e.exec_id == id; });
    }
  }
  if (seed % 7 == 0 && events.size() > 4) {
    // Re-deliver a few earlier Before events later in the stream, the last
    // ones as a new sibling instance (which may join a finished parent).
    for (int k = 0; k < 6; ++k) {
      const std::size_t from = rng() % events.size();
      const std::size_t to = from + 1 + rng() % (events.size() - from);
      if (events[from].when != When::kBefore) continue;
      // Stamped no later than any event after it: streams recorded at LP 4
      // are not in time order, and the muscle it reopens must not close
      // before it started.
      Event again = events[from];
      again.timestamp = events[to - 1].timestamp;
      for (std::size_t j = to; j < events.size(); ++j) {
        again.timestamp = std::min(again.timestamp, events[j].timestamp);
      }
      if (k >= 3 && again.parent_exec_id >= 0) again.exec_id = 1000000 + k;
      events.insert(events.begin() + static_cast<std::ptrdiff_t>(to), again);
    }
  }
  EstimateRegistry reg(0.5, cfg.scope);
  TrackerSet ts(reg);
  if (cfg.partial) {
    for (const Muscle* m : sk.muscles) {
      if (rng() & 1) reg.init_duration(m->id(), static_cast<double>(rng() % 4));
      if (m->kind() != MuscleKind::kExecute && m->kind() != MuscleKind::kMerge &&
          (rng() & 1)) {
        reg.init_cardinality(m->id(), static_cast<double>(rng() % 4));
      }
    }
    ts.limits.max_activities = 4 + rng() % 29;
    ts.limits.max_depth = 1 + static_cast<int>(rng() % 4);
  }
  AdgSnapshot front;
  DecisionWorkspace ws;
  for (std::size_t i = 0; i < events.size(); ++i) {
    ts.on_event(events[i]);
    if (events[i].when != When::kAfter) continue;
    const TimePoint now = events[i].timestamp + (seed % 2 == 0 ? 0.5 : 0.0);
    const AdgSnapshot full = ts.snapshot(now);
    ts.snapshot(now, SnapshotForm::kFrontier, front);
    const std::string where = "seed=" + std::to_string(seed) +
                              " scope=" + std::to_string(static_cast<int>(cfg.scope)) +
                              " partial=" + std::to_string(cfg.partial) +
                              " event " + std::to_string(i);
    ++counts.snapshots;
    counts.truncated += full.truncated;
    counts.crowded += full.count(ActivityState::kRunning) > 1;
    counts.lp1_crowded += lp1 && full.count(ActivityState::kRunning) > 1;
    counts.zero_length += std::any_of(
        full.activities.begin(), full.activities.end(), [](const Activity& a) {
          return a.state == ActivityState::kDone && a.end == a.start;
        });
    ASSERT_EQ(front.count(ActivityState::kDone) - front.folded, 0u) << where;
    ASSERT_EQ(full.size(), front.size()) << where;
    ASSERT_EQ(full.count(ActivityState::kRunning), front.count(ActivityState::kRunning))
        << where;
    ASSERT_EQ(full.count(ActivityState::kPending), front.count(ActivityState::kPending))
        << where;
    ASSERT_TRUE(same_time(full.now, front.now)) << where;
    ASSERT_EQ(full.complete_estimates, front.complete_estimates) << where;
    ASSERT_EQ(full.truncated, front.truncated) << where;
    ASSERT_EQ(front.validate(), "") << where;

    const Schedule be_full = best_effort(full);
    const Schedule be_front = best_effort(front);
    ASSERT_TRUE(same_time(be_full.wct, be_front.wct)) << where;
    for (int lp = 1; lp <= 8; ++lp) {
      ASSERT_TRUE(same_time(limited_lp(full, lp).wct, limited_lp(front, lp).wct))
          << where << " lp=" << lp;
    }
    const int peak = optimal_lp(full);
    ASSERT_EQ(peak, optimal_lp(front)) << where;
    std::vector<TimePoint> starts;
    std::vector<TimePoint> ends;
    counts.past_peaks += front.past_peak > peak_concurrency(be_front, starts, ends);

    if (full.size() == 0) continue;
    const TimePoint span = std::max(be_full.wct - full.now, 1.0);
    for (const double f : {0.5, 1.0, 2.0, 4.0}) {
      const TimePoint goal = full.now + f * span;
      for (const int lp : {1, 2, 5}) {
        const Decision a = decide(full, goal, lp, 8);
        const Decision b = decide(front, goal, lp, 8, DecisionConfig{}, ws);
        ASSERT_EQ(a.new_lp, b.new_lp) << where << " f=" << f << " lp=" << lp;
        ASSERT_EQ(a.reason, b.reason) << where << " f=" << f << " lp=" << lp;
        ASSERT_TRUE(same_time(a.best_effort_wct, b.best_effort_wct)) << where;
        ASSERT_TRUE(same_time(a.current_lp_wct, b.current_lp_wct)) << where;
        ASSERT_EQ(a.optimal_lp, b.optimal_lp) << where;
      }
    }
  }
}

TEST(FrontierSnapshotOracle, FrontierFormDecidesBitForBitLikeTheFullForm) {
  constexpr std::uint64_t kSkeletons = 1500;
  FrontierCounts counts;
  for (std::uint64_t seed = 1; seed <= kSkeletons; ++seed) {
    const RandomSkeleton sk(seed, 1 + static_cast<int>(seed % 4));
    const int lp = seed % 3 == 0 ? 4 : 1;
    const std::vector<Event> events = record_run(sk, mix64(seed), lp);
    for (const EstimationScope scope :
         {EstimationScope::kAggregate, EstimationScope::kPerDepth}) {
      for (const bool partial : {false, true}) {
        check_frontier(sk, events, lp == 1, {scope, partial}, seed, counts);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  // The property must not hold vacuously.
  EXPECT_GT(counts.snapshots, 50000);
  EXPECT_GT(counts.truncated, 1000);
  EXPECT_GT(counts.lp1_crowded, 100);
  EXPECT_GT(counts.zero_length, 1000);
  EXPECT_GT(counts.past_peaks, 100);
  std::printf("frontier oracle: %ld snapshots, %ld truncated, %ld crowded "
              "(%ld at LP 1), %ld zero-length, %ld decided by past_peak\n",
              counts.snapshots, counts.truncated, counts.crowded,
              counts.lp1_crowded, counts.zero_length, counts.past_peaks);
}

// -------------------------------------------------------- Ewma properties --

class EwmaSweep : public ::testing::TestWithParam<double> {};

TEST_P(EwmaSweep, ConvergesToConstantInput) {
  const double rho = GetParam();
  Ewma e(rho);
  for (int k = 0; k < 100; ++k) e.observe(7.5);
  EXPECT_NEAR(e.value(), 7.5, 1e-9);
}

TEST_P(EwmaSweep, StaysWithinObservedHull) {
  const double rho = GetParam();
  Ewma e(rho);
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> dist(2.0, 9.0);
  for (int k = 0; k < 50; ++k) {
    e.observe(dist(rng));
    EXPECT_GE(e.value(), 2.0);
    EXPECT_LE(e.value(), 9.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Rhos, EwmaSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0));

// -------------------------------------------- estimator-family properties --

/// Seeded random positive stream shared by the family invariants below.
std::vector<double> random_stream(std::uint64_t seed, int n, double lo = 0.5,
                                  double hi = 12.0) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) out.push_back(dist(rng));
  return out;
}

class EstimatorFamilySeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EstimatorFamilySeeds, WindowEstimatorsDependOnlyOnTheLastWObservations) {
  // Two estimators fed DIFFERENT histories but the same last W observations
  // must agree exactly: nothing older than the window may leave a trace
  // (unlike the EWMA, whose every estimate carries the whole history).
  for (const EstimatorKind kind :
       {EstimatorKind::kWindowMean, EstimatorKind::kWindowMedian}) {
    for (const int w : {1, 4, 16}) {
      const EstimatorConfig cfg{.kind = kind, .window = w};
      const std::vector<double> history_a = random_stream(GetParam(), 60);
      const std::vector<double> history_b = random_stream(GetParam() + 1000, 7);
      const std::vector<double> suffix = random_stream(GetParam() + 2000, w);
      const auto a = make_estimator(cfg);
      const auto b = make_estimator(cfg);
      for (const double v : history_a) a->observe(v);
      for (const double v : history_b) b->observe(v);
      b->init(99.0);  // even a late seed must wash out of the window
      for (const double v : suffix) {
        a->observe(v);
        b->observe(v);
      }
      EXPECT_EQ(a->value(), b->value())
          << to_string(kind) << " W=" << w << " seed=" << GetParam();
    }
  }
}

TEST_P(EstimatorFamilySeeds, P2StaysWithinTheObservedHull) {
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const auto est =
        make_estimator(EstimatorConfig{.kind = EstimatorKind::kP2Quantile,
                                       .quantile = q});
    double lo = 1e300, hi = -1e300;
    for (const double v : random_stream(GetParam(), 300)) {
      est->observe(v);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      EXPECT_GE(est->value(), lo) << "q=" << q;
      EXPECT_LE(est->value(), hi) << "q=" << q;
    }
  }
}

TEST_P(EstimatorFamilySeeds, P2IsMonotoneInQ) {
  // Independent P² estimators over the same stream, increasing q: the
  // estimates must come out ordered (the streaming quantile keeps enough of
  // the distribution's shape that a higher quantile never reads lower).
  const std::vector<double> stream = random_stream(GetParam(), 500);
  double prev = -1e300;
  for (const double q : {0.05, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const auto est = make_estimator(
        EstimatorConfig{.kind = EstimatorKind::kP2Quantile, .quantile = q});
    for (const double v : stream) est->observe(v);
    EXPECT_GE(est->value() + 1e-9, prev) << "q=" << q << " seed=" << GetParam();
    prev = est->value();
  }
}

TEST_P(EstimatorFamilySeeds, EwmaViaInterfaceIsBitIdenticalToLegacy) {
  // The interface wrapper must not change a single bit of the paper's
  // estimator: same stream, same init, exact (==) equality at every step.
  for (const double rho : {0.0, 0.3, 0.5, 1.0}) {
    Ewma legacy(rho);
    const auto wrapped =
        make_estimator(EstimatorConfig{.kind = EstimatorKind::kEwma, .rho = rho});
    legacy.init(4.25);
    wrapped->init(4.25);
    for (const double v : random_stream(GetParam(), 200)) {
      legacy.observe(v);
      wrapped->observe(v);
      ASSERT_EQ(legacy.value(), wrapped->value()) << "rho=" << rho;
    }
    EXPECT_EQ(legacy.observations(), wrapped->observations());
  }
}

TEST_P(EstimatorFamilySeeds, WholeFamilySharesTheInterfaceContract) {
  // has_value flips on the first init/observe; a fresh clone starts empty;
  // observations() counts real observations only.
  for (const EstimatorKind kind :
       {EstimatorKind::kEwma, EstimatorKind::kWindowMean,
        EstimatorKind::kWindowMedian, EstimatorKind::kP2Quantile}) {
    const auto est = make_estimator(EstimatorConfig{.kind = kind});
    EXPECT_FALSE(est->has_value()) << to_string(kind);
    // Out-of-contract value() before any sample degrades to 0.0 (the legacy
    // Ewma's lenient behavior) on every member — no UB, no NaN.
    EXPECT_EQ(est->value(), 0.0) << to_string(kind);
    est->init(3.0);
    EXPECT_TRUE(est->has_value()) << to_string(kind);
    EXPECT_EQ(est->observations(), 0) << to_string(kind);
    EXPECT_EQ(est->value(), 3.0) << to_string(kind);
    for (const double v : random_stream(GetParam(), 50)) est->observe(v);
    EXPECT_EQ(est->observations(), 50) << to_string(kind);
    const auto fresh = est->clone_fresh();
    EXPECT_EQ(fresh->kind(), kind);
    EXPECT_FALSE(fresh->has_value()) << to_string(kind);
    EXPECT_EQ(fresh->observations(), 0) << to_string(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorFamilySeeds,
                         ::testing::Values(3, 7, 11, 19, 42));

TEST(EstimatorFamily, FactoryRejectsBadParameters) {
  EXPECT_THROW(make_estimator(EstimatorConfig{.kind = EstimatorKind::kEwma,
                                              .rho = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(make_estimator(EstimatorConfig{.kind = EstimatorKind::kWindowMean,
                                              .window = 0}),
               std::invalid_argument);
  EXPECT_THROW(make_estimator(EstimatorConfig{.kind = EstimatorKind::kP2Quantile,
                                              .quantile = 1.0}),
               std::invalid_argument);
  EXPECT_THROW(make_estimator(EstimatorConfig{.kind = EstimatorKind::kP2Quantile,
                                              .quantile = 0.0}),
               std::invalid_argument);
}

TEST(EstimatorFamily, KindNamesRoundTrip) {
  for (const EstimatorKind kind :
       {EstimatorKind::kEwma, EstimatorKind::kWindowMean,
        EstimatorKind::kWindowMedian, EstimatorKind::kP2Quantile}) {
    const auto parsed = estimator_kind_from_string(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(estimator_kind_from_string("kalman").has_value());
}

// A higher rho reacts faster to a regime change (the paper's discussion of
// choosing rho).
TEST(EwmaComparison, HigherRhoAdaptsFasterToShift) {
  Ewma slow(0.2), fast(0.8);
  for (int k = 0; k < 10; ++k) {
    slow.observe(1.0);
    fast.observe(1.0);
  }
  slow.observe(10.0);
  fast.observe(10.0);
  EXPECT_GT(fast.value(), slow.value());
}

}  // namespace
}  // namespace askel
