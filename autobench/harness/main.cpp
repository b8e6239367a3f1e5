// autobench: end-to-end benchmark of libaskel's autonomic skeletons.
//
//   autobench --workload <wordcount|wide_map|slo_stream|remote_map>
//             --seed <n> --seconds <s> --trace <0|1> [--short]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// the same workload untraced and then traced, and reports the per-layer
// metrics (spans are written to .bench_build/traces/<workload>-seed<n>.jsonl).
// Human-readable lines come first; the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace autobench {
namespace {

const std::vector<std::string> kEndToEnd = {"setup_s", "wall_s",  "cpu_s",     "lp_s",
                                            "p50_ms",  "p99_ms",  "ops_per_s", "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "adg.activities", "adg.snapshot_us", "adg.limited_lp_us", "adg.best_effort_us",
    "autonomic.evaluations", "autonomic.eval_us_p50", "autonomic.eval_us_p99",
    "autonomic.eval_cpu_s", "autonomic.decide_us", "autonomic.mape_cpu_share",
    "autonomic.overhead_vs_fixed_lp", "autonomic.lp_actions", "autonomic.goal_met_ratio",
    "autonomic.actions_retained", "autonomic.arbitrations", "autonomic.arbitrate_us",
    "autonomic.peak_grant", "autonomic.budget_violations", "autonomic.record_latency_ns",
    "sm.ingest_cpu_s", "sm.ingest_ns_p50", "sm.tracked_instances", "est.snapshot_ns",
    "events.count", "events.listener_ns", "skel.muscles", "skel.muscle_s",
    "runtime.peak_busy", "runtime.busy_s", "runtime.lp_changes",
    "runtime.queue_wait_ms_p50", "runtime.queue_wait_ms_p99", "runtime.submit_ns",
    "runtime.remote.leases", "runtime.remote.losses_recovered",
    "runtime.remote.batch_flushes", "runtime.remote.tasks_per_flush",
    "runtime.remote.bracket_us_p50", "runtime.remote.named_rtt_us_p50",
    "runtime.remote.named_rtt_us_p99", "runtime.remote.join_ms",
    "harness.gen_lag_ms_p99", "harness.tracing_overhead", "harness.effective_cores"};

int usage(const char* why) {
  std::fprintf(stderr,
               "autobench: %s\nusage: autobench --workload <wordcount|wide_map|"
               "slo_stream|remote_map> --seed <n> --seconds <s> --trace <0|1> "
               "[--short]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

}  // namespace
}  // namespace autobench

int main(int argc, char** argv) {
  using namespace autobench;
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int k = 1; k < argc; ++k) {
    const std::string a = argv[k];
    const bool more = k + 1 < argc;
    if (a == "--workload" && more) {
      opt.workload = argv[++k];
    } else if (a == "--seed" && more) {
      opt.seed = std::strtoull(argv[++k], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && more) {
      opt.seconds = std::atof(argv[++k]);
      have_seconds = true;
    } else if (a == "--trace" && more) {
      opt.trace = std::strcmp(argv[++k], "0") != 0;
      have_trace = true;
    } else if (a == "--short") {
      opt.short_mode = true;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 60.0)) return usage("--seconds must be in (0, 60]");
  const std::map<std::string, void (*)(const Options&, Result&)> workloads = {
      {"wordcount", run_wordcount},
      {"wide_map", run_wide_map},
      {"slo_stream", run_slo_stream},
      {"remote_map", run_remote_map}};
  const auto wl = workloads.find(opt.workload);
  if (wl == workloads.end()) return usage(("unknown workload '" + opt.workload + "'").c_str());

  const unsigned nproc = std::thread::hardware_concurrency();
  const double cores_before = effective_cores();
  Result res;
  wl->second(opt, res);
  const double cores_after = effective_cores();
  if (opt.trace) {
    res.add("harness.effective_cores", (cores_before + cores_after) / 2.0, "cores", 2,
            "mean of calibrations before and after the workload");
  }

  // Traced spans must nest (see TraceSummary).
  if (opt.trace) {
    const TraceSummary sum = summarize(res.spans);
    if (sum.orphans != 0) {
      res.fail(std::to_string(sum.orphans) + " traced spans lack a recorded parent");
    }
    if (sum.escapes != 0) {
      res.fail(std::to_string(sum.escapes) + " traced spans lie outside their parent");
    }
    if (sum.negative_self != 0) {
      res.fail(std::to_string(sum.negative_self) + " traced spans have negative self time");
    }
    std::printf("# span summary (%ld spans%s)\n", sum.spans,
                trace::capped() ? ", cap reached" : "");
    std::printf("#   %-28s %9s %12s %12s %12s\n", "span", "count", "wall_s", "cpu_s", "self_s");
    for (int k = 0; k < kSpanKinds; ++k) {
      const auto& kd = sum.kinds[static_cast<std::size_t>(k)];
      if (kd.count == 0) continue;
      std::printf("#   %-28s %9ld %12.6f %12.6f %12.6f\n", span_name(static_cast<SpanKind>(k)),
                  kd.count, kd.wall_s, kd.cpu_s, kd.self_s);
    }
  }

  // Every metric of the mode must be present.
  const std::vector<std::string>& wanted = opt.trace ? kPerLayer : kEndToEnd;
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : res.metrics) by_name[m.name] = &m;
  for (const std::string& name : wanted) {
    if (by_name.count(name) == 0) res.fail("metric " + name + " was not measured");
  }

  const std::string host =
      "nproc=" + std::to_string(nproc) + " compiler=\"" + AUTOBENCH_COMPILER +
      "\" build_type=" + AUTOBENCH_BUILD_TYPE + " effective_cores_before=" +
      json_number(cores_before) + " effective_cores_after=" + json_number(cores_after);
  std::printf("# autobench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, opt.short_mode ? " short" : "");
  std::printf("# host %s\n", host.c_str());
  for (const std::string& c : res.context) std::printf("# %s\n", c.c_str());
  for (const Metric& m : res.metrics) {
    std::printf("%-34s %16.6f %-8s n=%-8ld %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.n, m.note.c_str());
  }
  const double failed_ratio =
      res.attempted > 0 ? static_cast<double>(res.failed) / static_cast<double>(res.attempted)
                        : 1.0;
  std::printf("%-34s %16.6f %-8s n=%-8ld %s\n", "failed_ratio", failed_ratio, "ratio",
              res.attempted, "failed / attempted operations and checks");
  for (const std::string& v : res.violations) std::printf("VIOLATION: %s\n", v.c_str());

  if (opt.trace) {
    const std::string dir = ".bench_build/traces";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path =
        dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".jsonl";
    const std::string header = "{\"workload\":\"" + opt.workload + "\",\"seed\":" +
                               std::to_string(opt.seed) + ",\"host\":\"" +
                               json_escape(host) + "\"}";
    if (dump_spans(path, header, res.spans)) {
      std::printf("# spans written to %s\n", path.c_str());
    } else {
      res.fail("could not write spans to " + path);
    }
  }

  std::string json = "{\"correct\": ";
  json += res.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max(1L, res.attempted));
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : wanted) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) continue;
    json += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " +
            json_number(it->second->value) + ", \"unit\": \"" + it->second->unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
