#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

namespace autobench {

void Result::add(std::string name, double value, std::string unit, long n,
                 std::string note) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit), n, std::move(note)});
}

void Result::fail(const std::string& why) {
  ++failed;
  violations.push_back(why);
}

void Result::check(bool ok, const std::string& why) {
  ++attempted;
  if (!ok) fail(why);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double supported_tail(std::vector<double> v, double& used_q) {
  const double n = static_cast<double>(v.size());
  if (n * 0.01 >= 10.0) {
    used_q = 0.99;
  } else if (n >= 20.0) {
    used_q = 1.0 - 10.0 / n;  // still at or above the median
  } else {
    used_q = 1.0;
  }
  return quantile(std::move(v), used_q);
}

std::string tail_note(double used_q, std::size_t n) {
  char buf[64];
  if (used_q >= 1.0) {
    std::snprintf(buf, sizeof buf, "max (n=%zu, too few for a tail)", n);
  } else {
    std::snprintf(buf, sizeof buf, "p%.4g (n=%zu)", used_q * 100.0, n);
  }
  return buf;
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double cpu_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu() { return cpu_clock(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu() { return cpu_clock(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double effective_cores() {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kIters = 6'000'000;
  std::atomic<double> cpu_sum{0.0};
  std::atomic<std::uint64_t> sink{0};
  const double t0 = wall_now();
  std::vector<std::thread> ts;
  for (int k = 0; k < kThreads; ++k) {
    ts.emplace_back([&, k] {
      const double c0 = thread_cpu();
      std::uint64_t x = static_cast<std::uint64_t>(k) + 1;
      for (std::uint64_t i = 0; i < kIters; ++i) x = mix64(x);
      sink.fetch_add(x, std::memory_order_relaxed);
      double expect = cpu_sum.load();
      const double mine = thread_cpu() - c0;
      while (!cpu_sum.compare_exchange_weak(expect, expect + mine)) {
      }
    });
  }
  for (auto& t : ts) t.join();
  const double wall = wall_now() - t0;
  return wall > 0.0 ? cpu_sum.load() / wall : 0.0;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_draw(std::uint64_t seed, std::uint64_t index) {
  return static_cast<double>(mix64(seed * 0x100000001b3ULL ^ mix64(index)) >> 11) *
         0x1.0p-53;
}

namespace {
constexpr std::uint64_t kLcgMul = 6364136223846793005ULL;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ULL;
}  // namespace

std::uint64_t lcg_steps(std::uint64_t x, std::uint64_t k) {
  for (std::uint64_t i = 0; i < k; ++i) x = x * kLcgMul + kLcgAdd;
  return x;
}

std::uint64_t lcg_jump(std::uint64_t x, std::uint64_t k) {
  std::uint64_t mul = 1, add = 0, step_mul = kLcgMul, step_add = kLcgAdd;
  for (; k != 0; k >>= 1) {
    if (k & 1) {
      mul *= step_mul;
      add = add * step_mul + step_add;
    }
    step_add *= step_mul + 1;
    step_mul *= step_mul;
  }
  return mul * x + add;
}

void add_batch_metrics(Result& res, const std::vector<double>& setups, const RunSet& set,
                       const char* op_name) {
  const std::vector<RunRecord>& runs = set.runs;
  std::vector<double> wall, cpu, lp, lat_ms, rate;
  long ops = 0;
  for (const RunRecord& r : runs) {
    wall.push_back(r.wall);
    cpu.push_back(r.cpu);
    lp.push_back(r.lp_s);
    lat_ms.push_back(r.wall * 1e3);
    rate.push_back(r.wall > 0.0 ? static_cast<double>(r.ops) / r.wall : 0.0);
    ops += r.ops;
  }
  const long n = static_cast<long>(runs.size());
  res.add("setup_s", median(setups), "s", static_cast<long>(setups.size()),
          "median of repeated set-ups");
  res.add("wall_s", median(wall), "s", n, "median run wall");
  res.add("cpu_s", median(cpu), "s", n, "median process CPU per run");
  res.add("lp_s", median(lp), "thread-s", n, "median target-LP integral per run");
  res.add("p50_ms", median(lat_ms), "ms", n, "median run latency");
  double q = 0.0;
  const double tail = supported_tail(lat_ms, q);
  res.add("p99_ms", tail, "ms", n, "run latency " + tail_note(q, lat_ms.size()));
  res.add("ops_per_s", median(rate), "1/s", ops,
          std::string("median ") + op_name + "s per second of run wall");
  res.add("peak_rss_mb", set.rss_mb, "MiB", set.fixed_runs,
          "VmHWM after set-up and " + std::to_string(set.fixed_runs) + " runs");
}

}  // namespace autobench
