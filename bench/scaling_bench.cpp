// Raw-speed scaling benchmark: the numbers behind docs/perf.md's scaling
// curve.
//
// Sections (one JSON object on stdout, merged into BENCH_PR<N>.json):
//   * pool_injection: external-submitter tasks/sec through the real pool at
//     P producers (the end-to-end path: injection-queue push -> a worker's
//     drain -> its deque);
//   * scaling: tasks/sec (fan-out churn) and estimate-snapshot latency under
//     concurrent writers, per LP — the multicore scaling curve. num_cpus is
//     reported so a 1-core CI box's flat curve reads as what it is.
//
// Usage: scaling_bench [--smoke]

#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "est/registry.hpp"
#include "runtime/thread_pool.hpp"
#include "util/csv.hpp"

using namespace askel;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// External submitters through the real pool: P threads submit `per_producer`
/// tasks each; tasks/sec includes the drain and execution.
double pool_injection_tps(int producers, long per_producer) {
  ResizableThreadPool pool(2, 2);
  std::atomic<long> done{0};
  const double t0 = now_s();
  std::vector<std::thread> prods;
  for (int p = 0; p < producers; ++p) {
    prods.emplace_back([&] {
      for (long k = 0; k < per_producer; ++k) {
        pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : prods) t.join();
  pool.wait_idle();
  const double dt = now_s() - t0;
  const long total = producers * per_producer;
  return done.load() == total && dt > 0.0 ? total / dt : 0.0;
}

struct ScalePoint {
  int lp = 0;
  double churn_tps = 0.0;
  double snap_dirty_ns = 0.0;
  double snap_clean_ns = 0.0;
};

/// Fan-out churn tasks/sec at a fixed LP (the BM_PoolChurn shape) plus the
/// registry snapshot cost while `lp` writer threads stream observations in —
/// the controller's actual decision-loop cost at that concurrency.
ScalePoint measure_scale_point(int lp, int rounds, int snap_iters) {
  ScalePoint out;
  out.lp = lp;
  {
    ResizableThreadPool pool(lp, lp);
    constexpr int kRoots = 16;
    constexpr int kChildren = 64;
    const double t0 = now_s();
    for (int r = 0; r < rounds; ++r) {
      for (int root = 0; root < kRoots; ++root) {
        pool.submit([&pool] {
          for (int c = 0; c < kChildren; ++c) pool.submit([] {});
        });
      }
      pool.wait_idle();
    }
    const double dt = now_s() - t0;
    out.churn_tps =
        dt > 0.0 ? rounds * kRoots * (kChildren + 1) / dt : 0.0;
  }
  {
    EstimateRegistry reg(0.5);
    for (int m = 0; m < 128; ++m) reg.observe_duration(m, 1.0);
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < lp; ++w) {
      writers.emplace_back([&reg, &stop, w] {
        long k = 0;
        while (!stop.load(std::memory_order_acquire)) {
          reg.observe_duration(w * 8 + static_cast<int>(k % 8), 1.0);
          ++k;
        }
      });
    }
    double acc = 0.0;
    for (int k = 0; k < snap_iters; ++k) {
      const double t0 = now_s();
      const auto snap = reg.snapshot();
      acc += now_s() - t0;
      if (snap.size() == 0) break;  // keep the snapshot observable
    }
    out.snap_dirty_ns = acc / snap_iters * 1e9;
    stop.store(true, std::memory_order_release);
    for (auto& t : writers) t.join();
    // Writers quiesced: the same snapshot with no lock contention.
    double acc2 = 0.0;
    for (int k = 0; k < snap_iters; ++k) {
      const double t0 = now_s();
      const auto snap = reg.snapshot();
      acc2 += now_s() - t0;
      if (snap.size() == 0) break;
    }
    out.snap_clean_ns = acc2 / snap_iters * 1e9;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--smoke") == 0) smoke = true;
  }
  const long per_producer = smoke ? 5000 : 50000;
  const int churn_rounds = smoke ? 4 : 24;
  const int snap_iters = smoke ? 200 : 2000;

  const std::vector<int> producer_counts = {1, 4, 8};
  const std::vector<int> lps = {1, 2, 4, 8};

  std::cout << "{\n";
  std::cout << "  \"smoke\": " << json_bool(smoke) << ",\n";
  std::cout << "  \"num_cpus\": " << std::thread::hardware_concurrency()
            << ",\n";

  std::cout << "  \"pool_injection\": [\n";
  for (std::size_t i = 0; i < producer_counts.size(); ++i) {
    const int p = producer_counts[i];
    std::cout << "    {\"producers\": " << p << ", \"tasks_per_sec\": "
              << fmt(pool_injection_tps(p, per_producer / 2), 0) << "}"
              << (i + 1 < producer_counts.size() ? "," : "") << "\n";
  }
  std::cout << "  ],\n";

  std::cout << "  \"scaling\": [\n";
  for (std::size_t i = 0; i < lps.size(); ++i) {
    const ScalePoint s = measure_scale_point(lps[i], churn_rounds, snap_iters);
    std::cout << "    {\"lp\": " << s.lp
              << ", \"churn_tasks_per_sec\": " << fmt(s.churn_tps, 0)
              << ", \"snapshot_dirty_ns\": " << fmt(s.snap_dirty_ns, 1)
              << ", \"snapshot_clean_ns\": " << fmt(s.snap_clean_ns, 1) << "}"
              << (i + 1 < lps.size() ? "," : "") << "\n";
  }
  std::cout << "  ]\n";
  std::cout << "}\n";
  return 0;
}
