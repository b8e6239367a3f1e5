// remote_map: a fixed-LP-4 map of fine-grain muscles on a TcpBackend
// connected over loopback to an in-process TcpWorkerHost. Each execute
// muscle makes one call_named to a function registered in a MuscleTable; the
// backend batches 16 task brackets per lease. There is no controller: this
// is the workload that crosses the remote bracket and bypasses MAPE.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "askel.hpp"
#include "common.hpp"
#include "hooks.hpp"
#include "layers.hpp"
#include "rig.hpp"
#include "runtime/muscle_table.hpp"
#include "runtime/tcp_transport.hpp"
#include "trace.hpp"
#include "workload/calibrated.hpp"

namespace autobench {

namespace {

constexpr int kLp = 4;
constexpr int kLeaseBatch = 16;
constexpr double kGrain = 0.004;  // mean remote sleep, seconds
// Fixed CPU work of each remote call (about 0.2 ms): with sleep-only calls
// the run's CPU was mostly wake-ups and spread 0.2 across seeds.
constexpr std::uint64_t kCpuSteps = std::uint64_t{1} << 17;
constexpr int kFixedRuns = 24;    // peak RSS is read after this many runs

struct Item {
  std::int64_t i = 0;
};

/// Worker host, TCP backend, the harness's delegating backend and a pool at
/// fixed LP 4 — declared so the pool goes first, the host last.
class Remote {
 public:
  Remote(std::uint64_t seed, int n, Result& res)
      : n_(n), host_(table_), backend_(backend_config(host_.port())), traced_(backend_) {
    // The named function runs kCpuSteps LCG steps, sleeps a seeded
    // 0.5x..1.5x the grain, and squares its argument; it answers -1 if its
    // LCG result is wrong. It runs on the worker host's serve thread.
    square_id_ = table_.register_muscle("autobench.square", [seed](const askel::PodValue& v) {
      const std::int64_t x = v.as_i64();
      const std::uint64_t x0 = mix64(static_cast<std::uint64_t>(x));
      const bool ok = lcg_steps(x0, kCpuSteps) == lcg_jump(x0, kCpuSteps);
      askel::simulate_work(kGrain * (0.5 + unit_draw(seed, static_cast<std::uint64_t>(x))));
      return askel::PodValue::of_i64(ok ? x * x : -1);
    });
    if (!host_.listening()) {
      res.fail("remote_map: worker host could not listen on loopback");
      return;
    }
    pool_ = std::make_unique<askel::ResizableThreadPool>(kLp, kLp);
    pool_->set_backend(&traced_);
    const double give_up = wall_now() + 10.0;
    while (backend_.live_sessions() < kLp && wall_now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (backend_.live_sessions() < kLp) {
      res.fail("remote_map: only " + std::to_string(backend_.live_sessions()) +
               " of 4 workers joined");
    }
    engine_ = std::make_unique<askel::Engine>(*pool_, bus_);
    skel_ = build(res);
  }
  ~Remote() {
    engine_.reset();
    if (pool_ != nullptr) pool_->wait_idle();
    pool_.reset();
  }
  Remote(const Remote&) = delete;
  Remote& operator=(const Remote&) = delete;

  bool ready() const { return pool_ != nullptr; }

  RunRecord run(Result& res) {
    std::string error;
    std::int64_t got = -1;
    const double c0 = process_cpu();
    const double t0 = askel::default_clock().now();
    double t1 = t0;
    {
      Scope span(SpanKind::kRun);
      try {
        got = skel_.input(std::int64_t{n_}, *engine_).get();
      } catch (const std::exception& e) {
        error = std::string("exception: ") + e.what();
      }
      t1 = askel::default_clock().now();
      // The last tasks' task_end brackets finish inside the run's span.
      pool_->wait_idle();
    }
    const double c1 = process_cpu();
    const std::int64_t m = n_;
    const std::int64_t expected = (m - 1) * m * (2 * m - 1) / 6;
    // One attempted operation per muscle; failed named calls were counted by
    // the muscles themselves.
    res.attempted += n_;
    if (error.empty() && got != expected) {
      error = "remote_map: sum " + std::to_string(got) + " != " + std::to_string(expected);
    }
    if (!error.empty()) res.fail(error);
    return RunRecord{t1 - t0, c1 - c0, lp_integral(*pool_, t0, t1), n_};
  }

  /// leases == completes + losses_recovered, checked once the pool is idle
  /// and every batch window has been flushed.
  void check_leases(Result& res) {
    pool_->wait_idle();
    askel::RemoteBackendStats s = backend_.stats();
    const double give_up = wall_now() + 2.0;
    while (s.leases != s.completes + s.losses_recovered && wall_now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      s = backend_.stats();
    }
    res.check(s.leases == s.completes + s.losses_recovered,
              "remote_map: leases " + std::to_string(s.leases) + " != completes " +
                  std::to_string(s.completes) + " + losses_recovered " +
                  std::to_string(s.losses_recovered));
  }

  askel::RemoteBackendStats stats() const { return backend_.stats(); }
  double join_ms() {
    const std::vector<double> j = backend_.transport_factory().join_latencies_us();
    double sum = 0.0;
    for (const double x : j) sum += x;
    return j.empty() ? 0.0 : sum / static_cast<double>(j.size()) * 1e-3;
  }
  askel::ResizableThreadPool& pool() { return *pool_; }

 private:
  static askel::TcpBackendConfig backend_config(std::uint16_t port) {
    askel::TcpBackendConfig cfg;
    cfg.port = port;
    cfg.max_workers = kLp;
    cfg.lease_batch = kLeaseBatch;
    return cfg;
  }

  askel::Skel<std::int64_t, std::int64_t> build(Result& res) {
    auto fs = askel::split_muscle<std::int64_t, Item>("fs", [](std::int64_t k) {
      std::vector<Item> items;
      items.reserve(static_cast<std::size_t>(k));
      for (std::int64_t i = 0; i < k; ++i) items.push_back(Item{i});
      return items;
    });
    auto fe = askel::execute_muscle<Item, std::int64_t>("fe", [this, &res](Item it) {
      askel::NamedCallResult r;
      {
        Scope span(SpanKind::kNamedCall);
        r = backend_.call_named(tl_worker, square_id_, askel::PodValue::of_i64(it.i));
      }
      if (!r.transported || r.status != askel::NamedStatus::kOk ||
          r.value.as_i64() != it.i * it.i) {
        std::lock_guard lock(fail_mu_);
        res.fail("remote_map: named call for " + std::to_string(it.i) + " on worker " +
                 std::to_string(tl_worker) + " failed (transported=" +
                 std::to_string(r.transported) + ")");
        return std::int64_t{0};
      }
      return r.value.as_i64();
    });
    auto fm = askel::merge_muscle<std::int64_t, std::int64_t>(
        "fm", [](std::vector<std::int64_t> parts) {
          std::int64_t sum = 0;
          for (const std::int64_t p : parts) sum += p;
          return sum;
        });
    fs.m = traced_split(fs.m);
    fe.m = traced_execute(fe.m);
    fm.m = traced_merge(fm.m);
    return askel::Map(fs, askel::Seq(fe), fm);
  }

  const int n_;
  askel::MuscleTable table_;
  askel::WireMuscleId square_id_ = 0;
  askel::TcpWorkerHost host_;
  askel::TcpBackend backend_;
  TracedBackend traced_;
  askel::EventBus bus_;
  std::unique_ptr<askel::ResizableThreadPool> pool_;
  std::unique_ptr<askel::Engine> engine_;
  askel::Skel<std::int64_t, std::int64_t> skel_{nullptr};
  std::mutex fail_mu_;
};

}  // namespace

void run_remote_map(const Options& opt, Result& res) {
  const int n = opt.short_mode ? 32 : 256;
  res.context.push_back("muscles=" + std::to_string(n) + " remote_grain_mean_ms=4 lp=4" +
                        " lease_batch=16 transport=tcp loopback");
  // Set-up: listen, connect and join 4 remote workers, one warm-up run.
  std::unique_ptr<Remote> rm;
  std::vector<double> setups;
  for (int k = 0; k < (opt.trace ? 1 : 5); ++k) {
    rm.reset();
    const double t0 = wall_now();
    rm = std::make_unique<Remote>(opt.seed, n, res);
    if (!rm->ready()) return;
    rm->run(res);
    setups.push_back(wall_now() - t0);
  }

  if (!opt.trace) {
    const RunSet set = run_for(opt.seconds, kFixedRuns, [&] { return rm->run(res); });
    rm->check_leases(res);
    add_batch_metrics(res, setups, set, "muscle");
    const askel::RemoteBackendStats s = rm->stats();
    res.context.push_back("leases=" + std::to_string(s.leases) + " completes=" +
                          std::to_string(s.completes) + " losses_recovered=" +
                          std::to_string(s.losses_recovered) + " named_calls=" +
                          std::to_string(s.named_calls));
    return;
  }

  const RunSet plain = run_for(opt.seconds * 0.5, 1, [&] { return rm->run(res); });
  rm->check_leases(res);
  const askel::RemoteBackendStats s0 = rm->stats();
  const double t0 = askel::default_clock().now();
  trace::clear();
  trace::enable(true);
  const RunSet traced = run_for(opt.seconds * 0.5, 1, [&] { return rm->run(res); });
  trace::enable(false);
  rm->check_leases(res);
  res.spans = trace::collect();
  const double t1 = askel::default_clock().now();
  const askel::RemoteBackendStats s1 = rm->stats();

  LayerInputs in;
  in.traced_runs = static_cast<int>(traced.runs.size());
  in.peak_busy = rm->pool().gauge().peak();
  in.busy_s = busy_integral(rm->pool(), t0, t1) / static_cast<double>(traced.runs.size());
  in.leases = static_cast<double>(s1.leases - s0.leases);
  in.losses_recovered = static_cast<double>(s1.losses_recovered - s0.losses_recovered);
  in.batch_flushes = static_cast<double>(s1.batch_flushes - s0.batch_flushes);
  in.tasks_batched = static_cast<double>(s1.tasks_batched - s0.tasks_batched);
  in.join_ms = rm->join_ms();
  in.tracing_overhead = median(walls(traced)) / median(walls(plain));
  add_layer_metrics(res, res.spans, in);
  res.context.push_back("untraced_runs=" + std::to_string(plain.runs.size()) +
                        " traced_runs=" + std::to_string(traced.runs.size()));
}

}  // namespace autobench
