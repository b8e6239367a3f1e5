#include "layers.hpp"

#include <algorithm>

namespace autobench {

namespace {

template <class Fn>
double time_us(Fn&& fn) {
  const double t0 = wall_now();
  fn();
  return (wall_now() - t0) * 1e6;
}

}  // namespace

AdgTimings reinvoke_adg(const std::vector<CapturedSnapshot>& caps,
                        const askel::DecisionConfig& cfg) {
  AdgTimings out;
  std::vector<double> size, lim, be, dec;
  for (const CapturedSnapshot& c : caps) {
    size.push_back(static_cast<double>(c.g.size()));
    for (int rep = 0; rep < 3; ++rep) {
      lim.push_back(time_us([&] { (void)askel::limited_lp(c.g, c.lp); }));
      be.push_back(time_us([&] { (void)askel::best_effort(c.g); }));
      dec.push_back(time_us(
          [&] { (void)askel::decide(c.g, c.goal_abs, c.lp, c.max_lp, cfg); }));
    }
  }
  out.n = static_cast<long>(caps.size());
  out.activities = median(size);
  out.limited_lp_us = median(lim);
  out.best_effort_us = median(be);
  out.decide_us = median(dec);
  return out;
}

double busy_integral(const askel::ResizableThreadPool& pool, double t0, double t1) {
  return pool.gauge().series().time_weighted_mean(t0, t1) * (t1 - t0);
}

double lp_integral(const askel::ResizableThreadPool& pool, double t0, double t1,
                   long* changes) {
  const askel::TimeSeries& lp = pool.lp_history();
  if (changes != nullptr) {
    const std::vector<askel::Sample> s = lp.samples();
    *changes = static_cast<long>(std::count_if(
        s.begin(), s.end(), [&](const askel::Sample& x) { return x.t > t0 && x.t <= t1; }));
  }
  return lp.time_weighted_mean(t0, t1) * (t1 - t0);
}

void add_layer_metrics(Result& res, const std::vector<Span>& spans,
                       const LayerInputs& in) {
  const TraceSummary sum = summarize(spans);
  const auto& K = sum.kinds;
  auto kind = [&](SpanKind k) -> const TraceSummary::Kind& {
    return K[static_cast<std::size_t>(k)];
  };
  const double runs = std::max(1, in.traced_runs);
  const long nr = in.traced_runs;
  auto med_scaled = [&](SpanKind k, double scale) {
    return median(kind(k).dur_ns) * scale;
  };
  auto count = [&](SpanKind k) { return static_cast<long>(kind(k).count); };

  std::vector<double> eval_ns;
  for (const Span& s : spans) {
    if ((s.kind == SpanKind::kCtlEvent || s.kind == SpanKind::kRecordLatency) &&
        s.flag != 0) {
      eval_ns.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  double eval_q = 0.0;
  const double eval_tail = supported_tail(eval_ns, eval_q);
  const double ctl_cpu =
      kind(SpanKind::kCtlEvent).cpu_s + kind(SpanKind::kRecordLatency).cpu_s;
  const double muscle_s = kind(SpanKind::kMuscle).wall_s;

  // adg
  res.add("adg.activities", in.adg_activities, "count", count(SpanKind::kAdgSnapshot),
          "median captured snapshot size");
  res.add("adg.snapshot_us", med_scaled(SpanKind::kAdgSnapshot, 1e-3), "us",
          count(SpanKind::kAdgSnapshot), "TrackerSet::snapshot at evaluation points");
  res.add("adg.limited_lp_us", in.limited_lp_us, "us", count(SpanKind::kAdgSnapshot),
          "median re-invocation at the captured LP");
  res.add("adg.best_effort_us", in.best_effort_us, "us", count(SpanKind::kAdgSnapshot),
          "median re-invocation");
  // autonomic: Analyze/Plan
  res.add("autonomic.evaluations", in.evaluations, "count", nr, "per run");
  res.add("autonomic.eval_us_p50", median(eval_ns) * 1e-3, "us",
          static_cast<long>(eval_ns.size()), "evaluating controller calls");
  res.add("autonomic.eval_us_p99", eval_tail * 1e-3, "us",
          static_cast<long>(eval_ns.size()), tail_note(eval_q, eval_ns.size()));
  res.add("autonomic.eval_cpu_s", ctl_cpu / runs, "s", nr,
          "controller thread CPU per run (on_event + record_latency)");
  res.add("autonomic.decide_us", in.decide_us, "us", in.decide_n,
          "median decide/decide_slo re-invocation");
  res.add("autonomic.mape_cpu_share",
          muscle_s > 0.0 ? (kind(SpanKind::kIngest).cpu_s + ctl_cpu) / muscle_s : 0.0,
          "ratio", count(SpanKind::kMuscle), "(tracker + controller CPU) / muscle wall");
  res.add("autonomic.overhead_vs_fixed_lp", in.overhead_vs_fixed_lp, "ratio", nr,
          "untraced autonomic wall / fixed max-LP wall (0 = no controller)");
  // autonomic: outcome
  res.add("autonomic.lp_actions", in.lp_actions, "count", nr, "applied LP changes per run");
  res.add("autonomic.goal_met_ratio", in.goal_met_ratio, "ratio", nr, "runs meeting goal");
  res.add("autonomic.actions_retained", in.actions_retained, "count", 1,
          "controller action log size at the end");
  // autonomic: Execute/coordinator
  res.add("autonomic.arbitrations", count(SpanKind::kArbitrate) / runs, "count", nr,
          "policy calls per run");
  res.add("autonomic.arbitrate_us", med_scaled(SpanKind::kArbitrate, 1e-3), "us",
          count(SpanKind::kArbitrate), "median policy call");
  res.add("autonomic.peak_grant", in.peak_grant, "threads", 1,
          "coordinator peak total grant");
  res.add("autonomic.budget_violations", in.budget_violations, "count", 1,
          "samples with total grant above budget (must be 0)");
  // autonomic: SLO sensor
  res.add("autonomic.record_latency_ns", med_scaled(SpanKind::kRecordLatency, 1.0), "ns",
          count(SpanKind::kRecordLatency), "median call");
  // sm
  res.add("sm.ingest_cpu_s", kind(SpanKind::kIngest).cpu_s / runs, "s", nr,
          "TrackerSet::on_event thread CPU per run");
  res.add("sm.ingest_ns_p50", med_scaled(SpanKind::kIngest, 1.0), "ns",
          count(SpanKind::kIngest), "median call");
  res.add("sm.tracked_instances", in.tracked_instances, "count", 1,
          "TrackerSet instances retained after warm-ups and a fixed run count");
  // est
  res.add("est.snapshot_ns", med_scaled(SpanKind::kEstSnapshot, 1.0), "ns",
          count(SpanKind::kEstSnapshot), "EstimateRegistry::snapshot at evaluation points");
  // events
  res.add("events.count", count(SpanKind::kDispatch) / runs, "count", nr,
          "events reaching the listeners per run");
  res.add("events.listener_ns",
          kind(SpanKind::kDispatch).count > 0
              ? kind(SpanKind::kDispatch).wall_s * 1e9 /
                    static_cast<double>(kind(SpanKind::kDispatch).count)
              : 0.0,
          "ns", count(SpanKind::kDispatch), "mean listener time per event");
  // skel
  res.add("skel.muscles", count(SpanKind::kMuscle) / runs, "count", nr, "per run");
  res.add("skel.muscle_s", muscle_s / runs, "s", nr, "muscle wall per run");
  // runtime
  res.add("runtime.peak_busy", in.peak_busy, "threads", 1, "pool gauge peak");
  res.add("runtime.busy_s", in.busy_s, "thread-s", nr, "busy-worker integral per run");
  res.add("runtime.lp_changes", in.lp_changes, "count", nr, "LP target changes per run");
  std::vector<double> wait_ms;
  for (const double ns : kind(SpanKind::kQueueWait).dur_ns) wait_ms.push_back(ns * 1e-6);
  double wq = 0.0;
  const double wait_tail = supported_tail(wait_ms, wq);
  res.add("runtime.queue_wait_ms_p50", median(wait_ms), "ms",
          static_cast<long>(wait_ms.size()), "due time to start, harness-submitted tasks");
  res.add("runtime.queue_wait_ms_p99", wait_tail, "ms", static_cast<long>(wait_ms.size()),
          tail_note(wq, wait_ms.size()));
  res.add("runtime.submit_ns", med_scaled(SpanKind::kSubmit, 1.0), "ns",
          count(SpanKind::kSubmit), "median pool.submit at the generator");
  // runtime.remote
  res.add("runtime.remote.leases", in.leases / runs, "count", nr, "per run");
  res.add("runtime.remote.losses_recovered", in.losses_recovered / runs, "count", nr,
          "per run");
  res.add("runtime.remote.batch_flushes", in.batch_flushes / runs, "count", nr, "per run");
  res.add("runtime.remote.tasks_per_flush",
          in.batch_flushes > 0.0 ? in.tasks_batched / in.batch_flushes : 0.0, "ratio",
          static_cast<long>(in.batch_flushes),
          "tasks_batched=" + std::to_string(static_cast<long>(in.tasks_batched)) +
              " / batch_flushes=" + std::to_string(static_cast<long>(in.batch_flushes)));
  const double bracket_ns =
      kind(SpanKind::kLeaseOpen).count > 0
          ? median(kind(SpanKind::kLeaseOpen).dur_ns) +
                median(kind(SpanKind::kLeaseClose).dur_ns)
          : 0.0;
  res.add("runtime.remote.bracket_us_p50", bracket_ns * 1e-3, "us",
          count(SpanKind::kLeaseOpen), "median task_begin + median task_end");
  std::vector<double> rtt_us;
  for (const double ns : kind(SpanKind::kNamedCall).dur_ns) rtt_us.push_back(ns * 1e-3);
  double rq = 0.0;
  const double rtt_tail = supported_tail(rtt_us, rq);
  res.add("runtime.remote.named_rtt_us_p50", median(rtt_us), "us",
          static_cast<long>(rtt_us.size()), "call_named round trip");
  res.add("runtime.remote.named_rtt_us_p99", rtt_tail, "us",
          static_cast<long>(rtt_us.size()), tail_note(rq, rtt_us.size()));
  res.add("runtime.remote.join_ms", in.join_ms, "ms", 1, "mean connect-to-hello join");
  // harness
  res.add("harness.gen_lag_ms_p99", in.gen_lag_ms_p99, "ms", 1,
          "open-loop generator lateness (0 = no generator)");
  res.add("harness.tracing_overhead", in.tracing_overhead, "ratio", nr,
          "traced / untraced median");
}

}  // namespace autobench
