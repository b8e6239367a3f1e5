// google-benchmark microbenchmarks of the framework's moving parts: event
// dispatch overhead, skeleton interpretation overhead, scheduler costs on
// growing ADGs, one controller evaluation (full vs frontier snapshot), a
// cold run's whole MAPE loop, estimator updates, and pool resize latency.
//
// These quantify the "very high level of adaptability" claim: per-event
// monitoring is only viable if event dispatch and re-estimation are cheap
// relative to muscle work.

#include <benchmark/benchmark.h>

#include <mutex>
#include <numeric>

#include "adg/best_effort.hpp"
#include "adg/limited_lp.hpp"
#include "adg/timeline.hpp"
#include "autonomic/controller.hpp"
#include "autonomic/decision.hpp"
#include "est/registry.hpp"
#include "events/listener.hpp"
#include "skel/typed.hpp"
#include "sm/tracker_set.hpp"
#include "workload/paper_example.hpp"

namespace askel {
namespace {

// ------------------------------------------------------------ event layer --

void BM_EventDispatch_NoListeners(benchmark::State& state) {
  EventBus bus;
  Event ev;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus.dispatch(std::any(1), ev));
  }
}
BENCHMARK(BM_EventDispatch_NoListeners);

void BM_EventDispatch_Listeners(benchmark::State& state) {
  EventBus bus;
  for (int k = 0; k < state.range(0); ++k) {
    bus.add_listener(std::make_shared<ObserverListener>([](const Event&) {}));
  }
  Event ev;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus.dispatch(std::any(1), ev));
  }
}
BENCHMARK(BM_EventDispatch_Listeners)->Arg(1)->Arg(4)->Arg(16);

// Contended dispatch: every worker thread of a skeleton fires Before/After
// events, so dispatch must not serialize the pool. The seed design took a
// mutex and heap-copied the listener list per event; the RCU design reads an
// atomic snapshot pointer.
void BM_EventDispatch_Contended(benchmark::State& state) {
  static EventBus* bus = nullptr;
  if (state.thread_index() == 0) {
    bus = new EventBus;
    for (int k = 0; k < 4; ++k) {
      bus->add_listener(std::make_shared<ObserverListener>([](const Event&) {}));
    }
  }
  Event ev;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus->dispatch(std::any(1), ev));
  }
  if (state.thread_index() == 0) {
    delete bus;
    bus = nullptr;
  }
}
BENCHMARK(BM_EventDispatch_Contended)->Threads(4)->UseRealTime();

// --------------------------------------------------------- skeleton layer --

void BM_SkeletonOverhead_SeqNoop(benchmark::State& state) {
  ResizableThreadPool pool(1, 1);
  EventBus bus;
  Engine engine(pool, bus);
  auto fe = execute_muscle<int, int>("noop", [](int x) { return x; });
  auto skel = Seq(fe);
  for (auto _ : state) {
    benchmark::DoNotOptimize(skel.input(1, engine).get());
  }
}
BENCHMARK(BM_SkeletonOverhead_SeqNoop);

void BM_SkeletonOverhead_MapNoop(benchmark::State& state) {
  ResizableThreadPool pool(2, 2);
  EventBus bus;
  Engine engine(pool, bus);
  const int n = static_cast<int>(state.range(0));
  auto fs = split_muscle<int, int>("fs", [n](int) {
    return std::vector<int>(static_cast<std::size_t>(n), 1);
  });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int> v) {
    return std::accumulate(v.begin(), v.end(), 0);
  });
  auto skel = Map(fs, Seq(fe), fm);
  for (auto _ : state) {
    benchmark::DoNotOptimize(skel.input(0, engine).get());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SkeletonOverhead_MapNoop)->Arg(4)->Arg(32)->Arg(256);

void BM_SkeletonOverhead_WithTrackingListeners(benchmark::State& state) {
  ResizableThreadPool pool(2, 2);
  EventBus bus;
  EstimateRegistry reg(0.5);
  TrackerSet trackers(reg);
  bus.add_listener(trackers.as_listener());
  Engine engine(pool, bus);
  auto fs = split_muscle<int, int>("fs", [](int) {
    return std::vector<int>(32, 1);
  });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int> v) {
    return static_cast<int>(v.size());
  });
  auto skel = Map(fs, Seq(fe), fm);
  for (auto _ : state) {
    trackers.reset();
    benchmark::DoNotOptimize(skel.input(0, engine).get());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_SkeletonOverhead_WithTrackingListeners);

// -------------------------------------------------------- analytic layers --

AdgSnapshot wide_dag(int width) {
  AdgSnapshot g;
  g.now = 0.0;
  const int split = g.add(make_pending(0, "fs", 1.0, {}));
  std::vector<int> fes;
  for (int k = 0; k < width; ++k) fes.push_back(g.add(make_pending(1, "fe", 1.0, {split})));
  g.add(make_pending(2, "fm", 1.0, fes));
  return g;
}

void BM_BestEffort(benchmark::State& state) {
  const AdgSnapshot g = wide_dag(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(best_effort(g).wct);
  }
}
BENCHMARK(BM_BestEffort)->Arg(32)->Arg(256)->Arg(2048);

void BM_LimitedLp(benchmark::State& state) {
  const AdgSnapshot g = wide_dag(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(limited_lp(g, 8).wct);
  }
}
BENCHMARK(BM_LimitedLp)->Arg(32)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Decide(benchmark::State& state) {
  const AdgSnapshot g = wide_dag(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(decide(g, 2.0, 4, 24));
  }
}
BENCHMARK(BM_Decide)->Arg(32)->Arg(256)->Arg(1024);

/// One cold run of a flat map of `width` seq muscles at LP 1, recorded as
/// the event stream the bus delivered (the skeleton is kept alive because
/// events point at its nodes).
struct ColdWideMap {
  NodePtr skeleton;
  std::vector<Event> events;
};

ColdWideMap record_cold_wide_map(int width) {
  auto fs = split_muscle<int, int>("fs", [](int k) {
    std::vector<int> v(static_cast<std::size_t>(k));
    std::iota(v.begin(), v.end(), 0);
    return v;
  });
  auto fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  auto fm = merge_muscle<int, int>("fm", [](std::vector<int> v) {
    return static_cast<int>(v.size());
  });
  const auto skel = Map(fs, Seq(fe), fm);
  ColdWideMap out{skel.node(), {}};
  ResizableThreadPool pool(1, 1);
  EventBus bus;
  std::mutex mu;
  bus.add_listener(std::make_shared<ObserverListener>([&](const Event& e) {
    std::lock_guard lock(mu);
    out.events.push_back(e);
  }));
  Engine engine(pool, bus);
  skel.input(width, engine).get();
  std::lock_guard lock(mu);
  return out;
}

// Paper scenario 1 on a flat map: a fresh registry, TrackerSet and armed
// controller ingest a cold run's events under a ManualClock (so no
// evaluation spacing applies). Every After-muscle event is a warming
// evaluation until the final merge; the cost per run should grow linearly
// with the width.
void BM_ColdStart(benchmark::State& state) {
  const ColdWideMap run = record_cold_wide_map(static_cast<int>(state.range(0)));
  ManualClock clock(0.0);
  ResizableThreadPool pool(1, 1, &clock);
  for (auto _ : state) {
    EstimateRegistry reg(0.5);
    TrackerSet trackers(reg);
    AutonomicController ctl(pool, trackers, &clock, ControllerConfig{});
    ctl.arm(1.0);
    for (const Event& e : run.events) {
      trackers.on_event(e);
      ctl.on_event(e);
    }
    benchmark::DoNotOptimize(ctl.evaluations());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColdStart)->Arg(256)->Arg(1024);

// One controller evaluation on a warm flat map with `pct`% of its muscles
// done and the next one running: TrackerSet::snapshot plus decide(), on the
// full form (range(2) == 0) or on the frontier form with reused storage, as
// the controller runs it. The frontier's cost should follow the pending
// muscles, not the width.
void BM_Evaluate(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const long cut = width * state.range(1) / 100;
  const bool frontier = state.range(2) != 0;
  const ColdWideMap run = record_cold_wide_map(width);
  EstimateRegistry reg(0.5);
  TrackerSet warm(reg);  // a first run leaves every estimate in reg
  for (const Event& e : run.events) warm.on_event(e);
  TrackerSet trackers(reg);
  long started = 0;
  for (const Event& e : run.events) {
    trackers.on_event(e);
    if (e.when == When::kBefore && e.where == Where::kExecute && started++ == cut) {
      break;
    }
  }
  const TimePoint now = trackers.snapshot(0.0).now;
  AdgSnapshot g;
  DecisionWorkspace ws;
  for (auto _ : state) {
    if (frontier) {
      trackers.snapshot(now, SnapshotForm::kFrontier, g);
      benchmark::DoNotOptimize(decide(g, now, 4, 4, DecisionConfig{}, ws));
    } else {
      g = trackers.snapshot(now);
      benchmark::DoNotOptimize(decide(g, now, 4, 4));
    }
  }
  state.SetLabel(frontier ? "frontier" : "full");
}
BENCHMARK(BM_Evaluate)->ArgsProduct({{256, 1024, 4096}, {5, 50, 95}, {0, 1}});

void BM_TrackerSnapshot_PaperExample(benchmark::State& state) {
  PaperExampleReplay replay;
  replay.replay_until(70.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(replay.snapshot(70.0).size());
  }
}
BENCHMARK(BM_TrackerSnapshot_PaperExample);

void BM_EstimatorObserve(benchmark::State& state) {
  EstimateRegistry reg(0.5);
  long k = 0;
  for (auto _ : state) {
    reg.observe_duration(static_cast<int>(k % 8), 1.0);
    ++k;
  }
}
BENCHMARK(BM_EstimatorObserve);

// Contended observes: state machines on different workers record different
// muscles into ONE shared registry, all serialized on its single mutex.
void BM_EstimatorObserve_Contended(benchmark::State& state) {
  static EstimateRegistry* reg = nullptr;
  if (state.thread_index() == 0) reg = new EstimateRegistry(0.5);
  long k = 0;
  const int base = state.thread_index() * 4;
  for (auto _ : state) {
    reg->observe_duration(base + static_cast<int>(k % 4), 1.0);
    ++k;
  }
  if (state.thread_index() == 0) {
    delete reg;
    reg = nullptr;
  }
}
BENCHMARK(BM_EstimatorObserve_Contended)->Threads(4)->UseRealTime();

// Controller decision loop cost: back-to-back snapshots with no intervening
// writes. Each one copies every entry under the registry lock, O(entries);
// real registries hold one skeleton's 2-12 muscles.
void BM_EstimateSnapshot_Clean(benchmark::State& state) {
  EstimateRegistry reg(0.5, EstimationScope::kPerDepth);
  for (int m = 0; m < static_cast<int>(state.range(0)); ++m) {
    reg.observe_duration(m, /*depth=*/0, 1.0);
    reg.observe_cardinality(m, /*depth=*/0, 4.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.snapshot().size());
  }
}
BENCHMARK(BM_EstimateSnapshot_Clean)->Arg(16)->Arg(128)->Arg(1024);

// ---------------------------------------------------------------- runtime --

void BM_PoolResize(benchmark::State& state) {
  ResizableThreadPool pool(1, 16);
  int lp = 1;
  for (auto _ : state) {
    lp = lp == 1 ? 16 : 1;
    benchmark::DoNotOptimize(pool.set_target_lp(lp));
  }
}
BENCHMARK(BM_PoolResize);

void BM_PoolSubmitDrain(benchmark::State& state) {
  ResizableThreadPool pool(2, 2);
  for (auto _ : state) {
    for (int k = 0; k < 64; ++k) pool.submit([] {});
    pool.wait_idle();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PoolSubmitDrain);

// External injection under multi-producer contention: 4 threads push batches
// onto the pool's injection queue (a WorkDeque no worker owns) and wait for
// the drain. Producers and the draining worker share that queue's one lock,
// so this is where external submitters contend.
void BM_PoolInjectDrain_Contended(benchmark::State& state) {
  static ResizableThreadPool* pool = nullptr;
  if (state.thread_index() == 0) pool = new ResizableThreadPool(2, 2);
  for (auto _ : state) {
    for (int k = 0; k < 16; ++k) pool->submit([] {});
    pool->wait_idle();
  }
  state.SetItemsProcessed(state.iterations() * 16);
  if (state.thread_index() == 0) {
    delete pool;
    pool = nullptr;
  }
}
BENCHMARK(BM_PoolInjectDrain_Contended)->Threads(4)->UseRealTime();

// Task churn at a given LP: roots fan out children from inside worker
// threads, the shape of a Map/DaC expansion. With a single global mutex every
// push/pop serializes, so adding workers adds contention instead of
// throughput; per-worker deques + stealing keep the hot path local.
void BM_PoolChurn(benchmark::State& state) {
  const int lp = static_cast<int>(state.range(0));
  ResizableThreadPool pool(lp, lp);
  constexpr int kRoots = 16;
  constexpr int kChildren = 64;
  for (auto _ : state) {
    std::atomic<int> done{0};
    for (int r = 0; r < kRoots; ++r) {
      pool.submit([&pool, &done] {
        for (int c = 0; c < kChildren; ++c) {
          pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(done.load());
  }
  state.SetItemsProcessed(state.iterations() * kRoots * (kChildren + 1));
}
BENCHMARK(BM_PoolChurn)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace askel
