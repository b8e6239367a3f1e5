// slo_stream: a seeded open-loop request stream for one p99-SLO tenant
// (arm_slo, SLA weight 3) next to a best-effort aggressor that keeps a
// standing backlog, on a coordinated pool at LP <= 4 with weighted dispatch.
// The harness's own generator submits each request when it is due and times
// it from that due time. No ADG is built: this workload stresses tenant
// queues, arbitration, the tail tracker and decide_slo.
//
// Each request runs a fixed count of LCG steps (lcg_steps) before its sleep.
// Without it the window's process CPU is almost all wake-ups, whose cost
// follows how busy the host is (it doubled between runs of the same code);
// the fixed work makes cpu_s steady, and its results are checked.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "askel.hpp"
#include "autonomic/coordinator.hpp"
#include "common.hpp"
#include "hooks.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "workload/calibrated.hpp"
#include "workload/service.hpp"

namespace autobench {

namespace {

constexpr int kMaxLp = 4;
constexpr double kTailGoal = 0.040;     // p99 SLO, seconds
constexpr double kRateHz = 100.0;       // SLO-tenant arrivals per second
// Service demand: Pareto, mean 15 ms, clamped at 40 ms. The goal sits just
// under the tail the tenant reaches at its full weighted share, so the
// controller holds that share instead of oscillating around the goal.
constexpr double kMeanService = 0.015;
constexpr double kServiceShape = 2.5;
constexpr double kServiceCap = 0.040;
constexpr double kAggressorWork = 0.005;
constexpr int kAggressorBacklog = 32;
constexpr double kWarmupSeconds = 0.5;
// cpu_s is the median process CPU per batch of this many consecutive
// requests (about 1 s of arrivals), so a window's request count, which the
// seed sets, does not move it.
constexpr std::size_t kCpuBatch = 100;
constexpr std::uint64_t kCpuSteps = std::uint64_t{1} << 19;  // about 0.8 ms of CPU

/// Coordinated pool with one SLO tenant and one flooding aggressor.
class Service {
 public:
  Service()
      : pool_(1, kMaxLp),
        coord_(pool_, kMaxLp),
        trackers_(reg_),
        ctl_(pool_, trackers_, &clock_, controller_config()) {
    auto policy = std::make_unique<TracedPolicy>(std::make_unique<askel::WeightedSharePolicy>());
    policy_ = policy.get();
    coord_.set_policy(std::move(policy));
    slo_id_ = coord_.register_tenant("slo");
    pool_.set_tenant_ordering(slo_id_, askel::TenantOrdering::kFifo);
    ctl_.set_sla_weight(3);
    ctl_.bind_coordinator(&coord_, slo_id_);
    ctl_.arm_slo(kTailGoal, kMaxLp, 0.99);
    aggr_id_ = coord_.register_tenant("aggressor");
    coord_.arm_tenant(aggr_id_);
    coord_.request(aggr_id_, kMaxLp, /*pressure=*/25.0);
    for (int k = 0; k < kAggressorBacklog; ++k) flood();
  }
  ~Service() {
    stop_flood_.store(true);
    pool_.wait_idle();
    ctl_.disarm();
    coord_.release(aggr_id_);
    coord_.unregister_tenant(aggr_id_);
    coord_.unregister_tenant(slo_id_);
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// One open-loop window: replay `stream`, wait for every request, and
  /// account for each one. Latencies (seconds) land in `lat`; a request that
  /// never completed stays negative.
  struct Window {
    double t0 = 0.0, t1 = 0.0;
    std::vector<double> batch_cpu;  // process CPU between due times of requests k*kCpuBatch
    std::vector<double> lat;
    std::vector<double> gen_lag_ms;
    long budget_violations = 0;
  };
  Window replay(const std::vector<askel::ServiceRequest>& stream, Result& res) {
    Window w;
    const std::size_t n = stream.size();
    auto slots = std::make_shared<std::vector<std::atomic<double>>>(n);
    for (auto& s : *slots) s.store(-1.0);
    auto outputs = std::make_shared<std::vector<std::atomic<std::uint64_t>>>(n);
    auto done = std::make_shared<std::atomic<long>>(0);
    auto twice = std::make_shared<std::atomic<long>>(0);
    {
      // Opened before the window's clock starts, so every due time (the
      // start of a queue-wait interval) lies inside the run span.
      Scope span(SpanKind::kRun);
      double cpu_mark = process_cpu();
      w.t0 = askel::default_clock().now();
      const std::int64_t t0_ns = trace::now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        const double due = w.t0 + stream[i].arrival;
        const double wait = due - askel::default_clock().now();
        if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        w.gen_lag_ms.push_back((askel::default_clock().now() - due) * 1e3);
        if (i > 0 && i % kCpuBatch == 0) {
          const double c = process_cpu();
          w.batch_cpu.push_back(c - cpu_mark);
          cpu_mark = c;
        }
        if (coord_.total_granted() > coord_.budget()) ++w.budget_violations;
        const double work = stream[i].work;
        const std::int64_t due_ns =
            t0_ns + static_cast<std::int64_t>(stream[i].arrival * 1e9);
        Scope submit(SpanKind::kSubmit);
        pool_.submit(
            [this, slots, outputs, done, twice, i, due, due_ns, work] {
              record_interval(SpanKind::kQueueWait, due_ns, trace::now_ns());
              {
                Scope body(SpanKind::kMuscle);
                (*outputs)[i].store(lcg_steps(mix64(i), kCpuSteps), std::memory_order_relaxed);
                askel::simulate_work(work);
              }
              const double latency = askel::default_clock().now() - due;
              double prev = -1.0;
              if (!(*slots)[i].compare_exchange_strong(prev, latency)) twice->fetch_add(1);
              {
                Scope rec(SpanKind::kRecordLatency);
                tl_clock_read = false;
                ctl_.record_latency(latency);
                if (tl_clock_read) {
                  const long e = ctl_.evaluations();
                  if (seen_evals_.exchange(e) < e) rec.set_flag(1);
                }
              }
              // Last: once every request counted itself done, no traced
              // span of this window is still open.
              done->fetch_add(1);
            },
            slo_id_);
      }
      // Drain: every scheduled request must complete (bounded wait).
      const double give_up = wall_now() + 30.0;
      while (done->load() < static_cast<long>(n) && wall_now() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    w.t1 = askel::default_clock().now();
    w.lat.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double l = (*slots)[i].load();
      w.lat.push_back(l);
      res.check(l >= 0.0, "slo_stream: request " + std::to_string(i) + " never completed");
      if (l >= 0.0) {
        res.check((*outputs)[i].load(std::memory_order_relaxed) == lcg_jump(mix64(i), kCpuSteps),
                  "slo_stream: request " + std::to_string(i) + " returned a wrong result");
      }
    }
    if (twice->load() != 0) {
      res.fail("slo_stream: " + std::to_string(twice->load()) + " requests completed twice");
    }
    if (w.budget_violations != 0) {
      res.fail("slo_stream: total_granted() > budget() at " +
               std::to_string(w.budget_violations) + " samples");
    }
    return w;
  }

  /// Σgrants > budget seen by the wrapped policy since construction.
  long policy_violations() const { return policy_->violations(); }

  askel::ResizableThreadPool& pool() { return pool_; }
  askel::LpBudgetCoordinator& coord() { return coord_; }
  askel::AutonomicController& ctl() { return ctl_; }
  int slo_id() const { return slo_id_; }

 private:
  static askel::ControllerConfig controller_config() {
    askel::ControllerConfig c;
    c.min_interval = 0.005;
    return c;
  }

  /// One aggressor task; it resubmits itself until the flood stops, so the
  /// aggressor keeps a standing backlog without a spinning thread.
  void flood() {
    pool_.submit(
        [this] {
          askel::simulate_work(kAggressorWork);
          if (!stop_flood_.load(std::memory_order_relaxed)) flood();
        },
        aggr_id_);
  }

  askel::ResizableThreadPool pool_;
  askel::LpBudgetCoordinator coord_;
  TracedPolicy* policy_ = nullptr;
  askel::EstimateRegistry reg_;
  askel::TrackerSet trackers_;
  EvalClock clock_;
  askel::AutonomicController ctl_;
  int slo_id_ = 0;
  int aggr_id_ = 0;
  std::atomic<bool> stop_flood_{false};
  std::atomic<long> seen_evals_{0};
};

std::vector<askel::ServiceRequest> make_stream(std::uint64_t seed, double seconds) {
  askel::ServiceStreamConfig cfg;
  cfg.seed = seed;
  cfg.tenants = 1;
  cfg.duration_s = seconds;
  cfg.total_rate_hz = kRateHz;
  cfg.mean_service_s = kMeanService;
  cfg.service_shape = kServiceShape;
  cfg.service_cap_s = kServiceCap;
  return askel::generate_service_stream(cfg);
}

std::vector<double> completed(const std::vector<double>& lat) {
  std::vector<double> out;
  for (const double l : lat) {
    if (l >= 0.0) out.push_back(l);
  }
  return out;
}

}  // namespace

void run_slo_stream(const Options& opt, Result& res) {
  const double warmup = opt.short_mode ? 0.2 : kWarmupSeconds;
  res.context.push_back("rate_hz=" + std::to_string(kRateHz) + " p99_goal_ms=" +
                        std::to_string(kTailGoal * 1e3) + " slo_weight=3 aggressor_backlog=" +
                        std::to_string(kAggressorBacklog) + " max_lp=4 open loop");
  // Set-up: the coordinated runtime, then a short warm-up stream so the
  // tail tracker is past its warm-up and the aggressor backlog stands.
  std::unique_ptr<Service> svc;
  std::vector<double> setups;
  for (int k = 0; k < (opt.trace ? 1 : 3); ++k) {
    svc.reset();
    const double t0 = wall_now();
    svc = std::make_unique<Service>();
    svc->replay(make_stream(opt.seed ^ 0x5eedULL, warmup), res);
    setups.push_back(wall_now() - t0);
  }

  if (!opt.trace) {
    const std::vector<askel::ServiceRequest> stream = make_stream(opt.seed, opt.seconds);
    const Service::Window w = svc->replay(stream, res);
    const std::vector<double> ms = [&] {
      std::vector<double> v;
      for (const double l : completed(w.lat)) v.push_back(l * 1e3);
      return v;
    }();
    long met = 0;
    for (const double l : w.lat) met += l >= 0.0 && l <= kTailGoal;
    const double wall = w.t1 - w.t0;
    const long n = static_cast<long>(w.lat.size());
    res.add("setup_s", median(setups), "s", static_cast<long>(setups.size()),
            "median of repeated set-ups (runtime + warm-up stream)");
    res.add("wall_s", wall, "s", 1, "first due time to last completion of the window");
    res.add("cpu_s", median(w.batch_cpu), "s", static_cast<long>(w.batch_cpu.size()),
            "median process CPU per " + std::to_string(kCpuBatch) + " requests");
    res.add("lp_s", lp_integral(svc->pool(), w.t0, w.t1), "thread-s", 1,
            "target-LP integral over the window");
    res.add("p50_ms", median(ms), "ms", static_cast<long>(ms.size()),
            "SLO request latency from due time");
    double q = 0.0;
    const double tail = supported_tail(ms, q);
    res.add("p99_ms", tail, "ms", static_cast<long>(ms.size()),
            "SLO request latency " + tail_note(q, ms.size()));
    res.add("ops_per_s", static_cast<double>(ms.size()) / wall, "1/s",
            static_cast<long>(ms.size()), "completed requests over the window");
    res.add("peak_rss_mb", peak_rss_mb(), "MiB", 1, "VmHWM at end");
    res.context.push_back("slo_attainment=" +
                          std::to_string(n > 0 ? static_cast<double>(met) / n : 0.0) +
                          " (" + std::to_string(met) + "/" + std::to_string(n) +
                          " within goal; lost requests count as misses)");
    double lq = 0.0;
    const double lag = supported_tail(w.gen_lag_ms, lq);
    res.context.push_back("gen_lag_ms_tail=" + std::to_string(lag) + " " +
                          tail_note(lq, w.gen_lag_ms.size()));
  } else {
    const Service::Window plain = svc->replay(make_stream(opt.seed, opt.seconds * 0.5), res);
    const long evals0 = svc->ctl().evaluations();
    const std::size_t actions0 = svc->ctl().actions().size();
    const double busy_t0 = askel::default_clock().now();
    trace::clear();
    trace::enable(true);
    const Service::Window traced =
        svc->replay(make_stream(opt.seed + 1, opt.seconds * 0.5), res);
    trace::enable(false);
    res.spans = trace::collect();
    const double busy_t1 = askel::default_clock().now();

    // decide_slo re-invoked on tail snapshots of the running tracker.
    std::vector<double> decide_us;
    for (int k = 0; k < 64; ++k) {
      const askel::TailSnapshot t = svc->ctl().tail_snapshot();
      const int lp = std::max(1, svc->coord().granted(svc->slo_id()));
      const double t0 = wall_now();
      (void)askel::decide_slo(t, kTailGoal, lp, kMaxLp);
      decide_us.push_back((wall_now() - t0) * 1e6);
    }
    const std::vector<double> plain_lat = completed(plain.lat);
    const std::vector<double> traced_lat = completed(traced.lat);
    double q = 0.0;
    LayerInputs in;
    in.traced_runs = 1;
    in.evaluations = static_cast<double>(svc->ctl().evaluations() - evals0);
    in.decide_us = median(decide_us);
    in.decide_n = static_cast<long>(decide_us.size());
    in.lp_actions = static_cast<double>(svc->ctl().actions().size() - actions0);
    in.goal_met_ratio = supported_tail(plain_lat, q) <= kTailGoal ? 1.0 : 0.0;
    in.actions_retained = static_cast<double>(svc->ctl().actions().size());
    in.peak_grant = svc->coord().peak_total_granted();
    in.budget_violations = static_cast<double>(plain.budget_violations +
                                               traced.budget_violations +
                                               svc->policy_violations());
    in.peak_busy = svc->pool().gauge().peak();
    long changes = 0;
    (void)lp_integral(svc->pool(), busy_t0, busy_t1, &changes);
    in.busy_s = busy_integral(svc->pool(), busy_t0, busy_t1);
    in.lp_changes = static_cast<double>(changes);
    in.gen_lag_ms_p99 = supported_tail(plain.gen_lag_ms, q);
    in.tracing_overhead = median(traced_lat) / median(plain_lat);
    add_layer_metrics(res, res.spans, in);
    res.context.push_back("untraced_requests=" + std::to_string(plain.lat.size()) +
                          " traced_requests=" + std::to_string(traced.lat.size()));
  }
  if (svc->policy_violations() != 0) {
    res.fail("slo_stream: arbitration returned grants above budget " +
             std::to_string(svc->policy_violations()) + " times");
  }
}

}  // namespace autobench
