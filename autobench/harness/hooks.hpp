#pragma once
// Delegating wrappers the harness puts around libaskel's public seams, so the
// traced run can time each layer from the benchmark's own files:
//
//  * EvalClock      — the controllers' clock; flags the calling thread when a
//                     controller reads time, which it does only once it holds
//                     its evaluation lock;
//  * LayerListener  — one bus listener standing in for the TrackerSet and
//                     controller listeners, timing each and capturing ADG
//                     snapshots at evaluation points;
//  * TracedPolicy   — an ArbitrationPolicy around the coordinator's real
//                     policy; also checks Σgrants ≤ budget on every call;
//  * TracedBackend  — a WorkerBackend around a RemoteWorkerBackend; also
//                     tells muscles which pool worker they run on;
//  * traced_*       — muscle wrappers that time the muscle body.

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "askel.hpp"
#include "autonomic/arbitration.hpp"
#include "runtime/remote_backend.hpp"
#include "trace.hpp"

namespace autobench {

/// Set by EvalClock::now() on the calling thread.
inline thread_local bool tl_clock_read = false;

class EvalClock final : public askel::Clock {
 public:
  askel::TimePoint now() const override {
    tl_clock_read = true;
    return askel::default_clock().now();
  }
};

/// An ADG snapshot taken where a controller evaluated, plus what the
/// controller planned against, so decide() can be re-invoked on it later.
struct CapturedSnapshot {
  askel::AdgSnapshot g;
  askel::TimePoint goal_abs = 0.0;
  int lp = 1;
  int max_lp = 1;
};

/// Bus listener used in traced windows in place of `trackers.as_listener()`
/// and `controller.as_listener()` (same order, same calls).
class LayerListener final : public askel::Listener {
 public:
  LayerListener(askel::TrackerSet& trackers, askel::EstimateRegistry& reg,
                askel::AutonomicController* ctl, askel::ResizableThreadPool& pool,
                int max_lp)
      : trackers_(trackers), reg_(reg), ctl_(ctl), pool_(pool), max_lp_(max_lp) {}

  /// The controller was (re-)armed: its evaluation counter restarted at 0.
  void armed(askel::TimePoint goal_abs) {
    seen_.store(0);
    goal_abs_ = goal_abs;
  }
  /// Snapshots captured so far: one at every 4th evaluation of each arm, at
  /// most kCaptures in total (a 1024-muscle snapshot is ~100 KiB).
  std::vector<CapturedSnapshot> take_captures() {
    std::lock_guard lock(mu_);
    return std::move(captures_);
  }

  std::any handle(std::any param, const askel::Event& ev) override {
    Scope dispatch(SpanKind::kDispatch);
    {
      Scope s(SpanKind::kIngest);
      trackers_.on_event(ev);
    }
    if (ctl_ == nullptr) return param;
    long eval_no = 0;
    {
      Scope s(SpanKind::kCtlEvent);
      tl_clock_read = false;
      ctl_->on_event(ev);
      if (tl_clock_read) {
        const long e = ctl_->evaluations();
        if (seen_.exchange(e) < e) {
          eval_no = e;
          s.set_flag(1);
        }
      }
    }
    if (eval_no > 0 && wants_capture(eval_no)) capture();
    return param;
  }

 private:
  static constexpr std::size_t kCaptures = 48;
  static bool wants_capture(long n) { return n % 4 == 0; }

  void capture() {
    {
      std::lock_guard lock(mu_);
      if (captures_.size() >= kCaptures) return;
    }
    CapturedSnapshot c;
    {
      Scope s(SpanKind::kAdgSnapshot);
      c.g = trackers_.snapshot(askel::default_clock().now());
    }
    {
      Scope s(SpanKind::kEstSnapshot);
      (void)reg_.snapshot();
    }
    c.goal_abs = goal_abs_;
    c.lp = pool_.target_lp();
    c.max_lp = max_lp_;
    std::lock_guard lock(mu_);
    captures_.push_back(std::move(c));
  }

  askel::TrackerSet& trackers_;
  askel::EstimateRegistry& reg_;
  askel::AutonomicController* ctl_;
  askel::ResizableThreadPool& pool_;
  const int max_lp_;
  std::atomic<long> seen_{0};
  askel::TimePoint goal_abs_ = 0.0;
  std::mutex mu_;
  std::vector<CapturedSnapshot> captures_;
};

class TracedPolicy final : public askel::ArbitrationPolicy {
 public:
  explicit TracedPolicy(std::unique_ptr<askel::ArbitrationPolicy> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  void arbitrate(int budget, const std::vector<askel::TenantDemand>& demands,
                 std::vector<int>& grants) const override {
    {
      Scope s(SpanKind::kArbitrate);
      inner_->arbitrate(budget, demands, grants);
    }
    long sum = 0;
    for (const int g : grants) sum += g;
    if (sum > budget) violations_.fetch_add(1, std::memory_order_relaxed);
  }
  long violations() const { return violations_.load(); }

 private:
  std::unique_ptr<askel::ArbitrationPolicy> inner_;
  mutable std::atomic<long> violations_{0};
};

/// Pool worker index of the calling thread, as last seen by task_begin.
inline thread_local int tl_worker = -1;

class TracedBackend final : public askel::WorkerBackend {
 public:
  explicit TracedBackend(askel::RemoteWorkerBackend& inner) : inner_(inner) {}
  const char* name() const override { return inner_.name(); }
  bool remote() const override { return inner_.remote(); }
  void bind(ProvisionResult on_result) override { inner_.bind(std::move(on_result)); }
  Provision provision(int have, int want) override { return inner_.provision(have, want); }
  void release(int have, int want) override { inner_.release(have, want); }
  std::uint64_t task_begin(int worker, std::uint64_t queued_hint) override {
    tl_worker = worker;
    Scope s(SpanKind::kLeaseOpen);
    return inner_.task_begin(worker, queued_hint);
  }
  void task_end(int worker, std::uint64_t lease) override {
    Scope s(SpanKind::kLeaseClose);
    inner_.task_end(worker, lease);
  }
  void cancel() override { inner_.cancel(); }
  void set_provision_delay(askel::Duration d) override { inner_.set_provision_delay(d); }
  askel::Duration provision_delay() const override { return inner_.provision_delay(); }

 private:
  askel::RemoteWorkerBackend& inner_;
};

// Muscle wrappers: same name, same body, timed as a skel.muscle span.
inline askel::SplitPtr traced_split(askel::SplitPtr m) {
  return std::make_shared<const askel::SplitMuscle>(m->name(), [m](askel::Any p) {
    Scope s(SpanKind::kMuscle);
    return m->invoke(std::move(p));
  });
}
inline askel::ExecPtr traced_execute(askel::ExecPtr m) {
  return std::make_shared<const askel::ExecuteMuscle>(m->name(), [m](askel::Any p) {
    Scope s(SpanKind::kMuscle);
    return m->invoke(std::move(p));
  });
}
inline askel::MergePtr traced_merge(askel::MergePtr m) {
  return std::make_shared<const askel::MergeMuscle>(m->name(), [m](askel::AnyVec p) {
    Scope s(SpanKind::kMuscle);
    return m->invoke(std::move(p));
  });
}

}  // namespace autobench
