#pragma once
// RemoteWorkerBackend: the session state machine behind every remote
// WorkerBackend — SubprocessBackend runs it over fork()ed processes and
// socketpairs, the fault-injection tests run the *same* machine over
// FakeTransportFactory, so the deterministic suite exercises exactly the
// code the real transport uses.
//
// Model: one session per pool-worker index. The session is a *transport
// proxy*, not a second scheduler — the task's closure always executes
// in-process (skeleton muscles are closures over shared memory; shipping
// computation needs serializable muscles, a future PR). What the session
// makes real is everything the paper's §6 distribution sketch worries
// about: join latency, join failure, crash, message loss, duplication,
// reordering and partitions — i.e. the control plane of "adding workers
// like adding threads".
//
// Lease protocol (per session, sequential — one outstanding lease, owned by
// the pool worker thread that opened it):
//   task_begin: Submit{seq} ships; the lease is open.
//   task_end:   consume frames until Complete{seq} arrives (completed), the
//               link dies or the completion deadline passes (recovered).
//   Every non-zero lease ends in exactly one of those two states:
//               leases == completes + losses_recovered, always — the
//               fault suite pins this on every plan, so a dropped or
//               reordered completion can never lose a task.
//   A Complete for no lease still open is a duplicate/stale delivery and is
//   counted + ignored, so a duplicated completion can never double-close.
//
// Named calls (call_named): kSubmitNamed -> kResultNamed is a lease of its
// own. A named call made inside a bracketed pool task reads the session's
// inbox while the bracket is open, so its receive loop also settles the
// bracket's Complete when that arrives (it was written first); task_end
// then finds the bracket accounted and does not wait for a frame already
// consumed.
//
// Batched leases (cfg.lease_batch K > 1): task_begin/task_end stop round-
// tripping per task. Brackets accumulate in a per-session window; the K-th
// bracket (or a bracket finding the window older than cfg.batch_flush, or a
// deferred retire) flushes the window as ONE Submit whose `b` field carries
// the bracket count, then awaits its single Complete — the same recovery
// loop, so leases == completes + losses_recovered still holds with one
// lease per window. The flush deadline anchors when a bracket enters an
// empty window in task_end. The heartbeat sweep (and pump(), in manual
// mode) flushes a stale window when no further bracket arrives.
//
// Pipelined window: a named call that finds a window open ships its
// Submit{b = count} and the kSubmitNamed frame in ONE write, and one
// receive loop settles both leases (Complete{flush} and ResultNamed) — one
// send and one wait per remote named task. The TCP worker host answers
// such a pair with one write too (it holds replies while another whole
// request is buffered), so the pool worker wakes once. Every fault path
// still accounts each lease exactly once: a failed send opens neither, a
// dead link or a passed deadline recovers whichever is still open.
//
// Failure taxonomy -> behavior:
//   slow provision    provision() returns kPending; the join lands through
//                     the pool's ProvisionResult callback when the factory
//                     yields the transport (virtual latency or real fork).
//   failed provision  the factory refuses or the connect deadline passes:
//                     ProvisionResult(target, false) — the pool abandons the
//                     request, the coordinator claws the LP back.
//   crash mid-task    the link reads dead in task_end: the lease is
//                     recovered, the session is torn down, the next
//                     provision() re-forks it.
//   dropped/reordered the completion deadline passes with the link alive:
//   completion        the lease is recovered but the session survives; the
//                     late frame is ignored on arrival.
//   partition         heartbeats vanish: probe() times out, declares the
//                     session lost and recovers it.
//
// Locking: backend mutex (provision plane) and one mutex per session (lease
// plane) are leaves under the pool's control mutex; ProvisionResult runs
// with no backend lock held. factory.try_connect is called unlocked — a
// slow fork never stalls the pool's control plane.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/muscle_table.hpp"
#include "runtime/transport.hpp"
#include "runtime/worker_backend.hpp"
#include "util/clock.hpp"

namespace askel {

struct RemoteBackendConfig {
  /// Hard capacity: provisioning past this fails (kFailed) — the test hook
  /// for "the cluster is full" and the subprocess fan-out bound.
  int max_workers = 256;
  /// Provision deadline: a pending join older than this fails.
  Duration connect_timeout = 5.0;
  /// Lease deadline: a completion not seen within this is recovered.
  Duration complete_timeout = 1.0;
  /// probe() deadline: no heartbeat-ack within this = partitioned/lost.
  Duration heartbeat_timeout = 0.25;
  /// While provisioning is idle, the backend's provisioning thread probes
  /// every live, lease-free session at roughly this cadence, so a
  /// partitioned idle worker is detected without waiting for its next
  /// lease. 0 disables the sweep (manual_pump mode never sweeps — tests
  /// call probe() themselves).
  Duration heartbeat_interval = 1.0;
  /// true: no provision thread — the test drives joins via pump() against a
  /// virtual clock. false: a background thread polls the factory.
  bool manual_pump = false;
  /// Per-lease task batching: coalesce up to this many task brackets into
  /// one Submit/Complete round trip (the Submit's `b` field carries the
  /// count), amortizing the measured ~4.6 µs round trip across the window.
  /// 1 (default) keeps the unbatched protocol byte-identical to before.
  int lease_batch = 1;
  /// Flush deadline for a partially filled batch: a window older than this
  /// flushes at the next task boundary (or the next heartbeat sweep / pump),
  /// bounding how long a task bracket stays unaccounted on the wire.
  Duration batch_flush = 0.005;
  const Clock* clock = &default_clock();
  const char* name = "remote";
};

/// Monotonic counters; every lease is accounted exactly once:
/// leases == completes + losses_recovered at every quiescent point.
struct RemoteBackendStats {
  std::uint64_t leases = 0;
  std::uint64_t completes = 0;
  std::uint64_t losses_recovered = 0;
  std::uint64_t ignored_completes = 0;  // duplicate or stale deliveries
  std::uint64_t heartbeats_acked = 0;
  std::uint64_t provision_failures = 0;
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_lost = 0;
  std::uint64_t sessions_retired = 0;
  /// Batched mode only: task brackets shipped inside flushed windows, and
  /// the Submit round trips that carried them. tasks_batched / batch_flushes
  /// is the achieved amortization factor.
  std::uint64_t tasks_batched = 0;
  std::uint64_t batch_flushes = 0;
  /// Named-muscle calls shipped (each is also a lease, so the invariant
  /// above covers them), and the subset that resolved with a non-kOk status.
  std::uint64_t named_calls = 0;
  std::uint64_t named_errors = 0;
};

/// Outcome of RemoteWorkerBackend::call_named. `transported` is false when
/// the call never resolved remotely — no live session, the link died, or
/// the result deadline passed (the lease is recovered either way); `status`
/// is only meaningful when it is true.
struct NamedCallResult {
  bool transported = false;
  NamedStatus status = NamedStatus::kUnsupported;
  PodValue value;  // decoded result, kOk only
};

class RemoteWorkerBackend : public WorkerBackend {
 public:
  explicit RemoteWorkerBackend(TransportFactory& factory,
                               RemoteBackendConfig cfg = {});
  ~RemoteWorkerBackend() override;

  const char* name() const override { return cfg_.name; }
  bool remote() const override { return true; }
  void bind(ProvisionResult on_result) override;
  Provision provision(int have, int want) override;
  void release(int have, int want) override;
  std::uint64_t task_begin(int worker, std::uint64_t queued_hint) override;
  void task_end(int worker, std::uint64_t lease) override;
  void cancel() override;

  /// Deterministic mode: advance the provisioning state machine as far as it
  /// goes at the current (virtual) time — connect ready workers, report
  /// failures. Reentrant-safe: the ProvisionResult callback may provision
  /// again from inside (the coordinator reclaim path does).
  void pump();

  /// Liveness probe: heartbeat round trip within heartbeat_timeout. false
  /// marks the session lost (torn down; re-provisioned on the next grow) —
  /// this is how a partition becomes a detected failure. Never blocks on a
  /// busy session: one mid-lease (mutex held) is answering by definition
  /// and reports true without wire traffic.
  bool probe(int worker);

  /// One idle-cadence pass over every session: probe liveness FIRST, then
  /// flush stale batch windows. The order is load-bearing — flushing into a
  /// partitioned worker burns a complete_timeout on a lease that is already
  /// doomed, holding the session mutex and delaying detection past the
  /// heartbeat cadence; probing first tears the dead session down so the
  /// stale window is dropped instead of leased. Public so manual-pump tests
  /// can drive exactly one sweep against a virtual clock (the provisioning
  /// thread calls it on its own cadence in real-time mode).
  void heartbeat_sweep();

  /// Execute registered muscle `id` remotely on `worker`'s session with the
  /// encoded `arg` (kSubmitNamed -> kResultNamed round trip). The call is a
  /// lease: it resolves as a complete or a recovered loss under the same
  /// invariant as task brackets. An open batch window is flushed in the same
  /// write, ahead of the call, and settled by the same receive loop.
  NamedCallResult call_named(int worker, WireMuscleId id, const PodValue& arg);

  /// Sessions with a live transport right now.
  int live_sessions() const;
  RemoteBackendStats stats() const;

 private:
  struct Session {
    std::mutex mu;  // lease plane: transport use + seq bookkeeping
    std::unique_ptr<Transport> transport;
    std::uint64_t next_seq = 1;
    std::uint64_t open_lease = 0;  // unbatched bracket in flight (under mu)
    // Batched-lease window (lease_batch > 1, all under mu): brackets
    // accumulated since the last flush, the queued hint of the first, and
    // when the first entered the window (anchor of the flush deadline).
    std::uint64_t batch_count = 0;
    std::uint64_t batch_hint = 0;
    TimePoint batch_since = 0.0;
    /// Deferred retire: release() must not block on a session whose lease
    /// is mid-flight (its mutex may be held for a whole completion
    /// timeout, and release() runs under the pool's control mutex). The
    /// flag asks the lease owner to retire the session at its next
    /// boundary; a re-grow (provision covering this worker) cancels it.
    std::atomic<bool> retire_requested{false};
  };
  struct Outcome {
    ProvisionResult cb;
    int target = 0;
    bool ok = false;
  };

  /// One provisioning step. Returns true when it made progress (connected a
  /// worker, resolved the pending target); fills `out` when a result must be
  /// reported (call it with no lock held).
  bool pump_step(Outcome& out);
  void provision_loop(const std::stop_token& st);
  bool session_live(int worker) const;
  /// session.mu held: tear the transport down and count the loss; an open
  /// bracket lease on it is recovered here.
  void drop_session_locked(Session& s);
  /// session.mu held: clean retire — Retire frame, close, count. A pending
  /// batch window flushes fire-and-forget first (no lease opened: the
  /// completion can never be read once the transport closes).
  void retire_session_locked(Session& s, int worker);
  /// session.mu held, live transport, open lease `lease`: consume frames
  /// until Complete{lease} (completed), the link dies or the completion
  /// deadline passes (recovered). Resolves the lease exactly once.
  void await_complete_locked(Session& s, std::uint64_t lease);
  /// session.mu held, live transport: ship the pending batch window as one
  /// Submit{b = count} lease and await its completion. No-op when empty.
  void flush_batch_locked(Session& s, int worker);
  /// Flush a batch window whose deadline passed with no further bracket
  /// arriving (heartbeat sweep / pump). try_lock: never stalls on a lease.
  void flush_stale_batch(int worker);

  TransportFactory& factory_;
  const RemoteBackendConfig cfg_;
  std::vector<std::unique_ptr<Session>> sessions_;  // max_workers, fixed

  mutable std::mutex mu_;  // provision plane
  std::condition_variable provision_cv_;
  ProvisionResult result_;
  int pending_target_ = 0;
  TimePoint pending_since_ = 0.0;
  bool stop_ = false;
  std::jthread provision_thread_;

  // Stats are atomics so the lease plane never takes the provision mutex.
  std::atomic<std::uint64_t> leases_{0};
  std::atomic<std::uint64_t> completes_{0};
  std::atomic<std::uint64_t> losses_{0};
  std::atomic<std::uint64_t> ignored_{0};
  std::atomic<std::uint64_t> hb_acked_{0};
  std::atomic<std::uint64_t> provision_failures_{0};
  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> sessions_lost_{0};
  std::atomic<std::uint64_t> sessions_retired_{0};
  std::atomic<std::uint64_t> tasks_batched_{0};
  std::atomic<std::uint64_t> batch_flushes_{0};
  std::atomic<std::uint64_t> named_calls_{0};
  std::atomic<std::uint64_t> named_errors_{0};
};

}  // namespace askel
