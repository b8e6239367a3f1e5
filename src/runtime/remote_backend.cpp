#include "runtime/remote_backend.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace askel {

namespace {
// Lease token handed out by the batched task_begin: "this bracket is part of
// the session's open batch window" — no wire sequence exists for it yet.
// Real sequence numbers start at 1 and could only collide after 2^64-1
// leases.
constexpr std::uint64_t kBatchToken = ~std::uint64_t{0};
}  // namespace

RemoteWorkerBackend::RemoteWorkerBackend(TransportFactory& factory,
                                         RemoteBackendConfig cfg)
    : factory_(factory), cfg_(cfg) {
  // All session slots exist up front (stable addresses: worker threads index
  // them with no backend lock; only the per-session mutex is taken).
  sessions_.reserve(static_cast<std::size_t>(std::max(1, cfg_.max_workers)));
  for (int k = 0; k < std::max(1, cfg_.max_workers); ++k) {
    sessions_.push_back(std::make_unique<Session>());
  }
}

RemoteWorkerBackend::~RemoteWorkerBackend() {
  cancel();
  // Transports close in their destructors (sessions own them).
}

void RemoteWorkerBackend::bind(ProvisionResult on_result) {
  std::lock_guard lock(mu_);
  result_ = std::move(on_result);
}

bool RemoteWorkerBackend::session_live(int worker) const {
  if (worker < 0 || worker >= static_cast<int>(sessions_.size())) return false;
  Session& s = *sessions_[static_cast<std::size_t>(worker)];
  // try_lock: a session whose mutex is held is mid-lease, i.e. live enough
  // for provisioning purposes — and blocking here (under the provision
  // mutex, itself under the pool's control mutex) on a lease that may wait
  // out a completion timeout would stall the pool's whole control plane.
  std::unique_lock lock(s.mu, std::try_to_lock);
  if (!lock.owns_lock()) return true;
  return s.transport != nullptr && s.transport->alive();
}

WorkerBackend::Provision RemoteWorkerBackend::provision(int have, int want) {
  (void)have;  // what matters is which sessions are live, not the pool's view
  if (want > static_cast<int>(sessions_.size())) return Provision::kFailed;
  // Growing over a worker cancels any deferred retire still pending on it.
  for (int w = 0; w < want; ++w) {
    sessions_[static_cast<std::size_t>(w)]->retire_requested.store(
        false, std::memory_order_relaxed);
  }
  bool all = true;
  for (int w = 0; w < want && all; ++w) all = session_live(w);
  if (all) {
    // This want is satisfied: any older, larger pending target is stale
    // (the pool's requested LP moved on), so stop chasing it — otherwise
    // the provision thread keeps forking workers nobody asked for and
    // eventually reports a phantom failure.
    std::lock_guard lock(mu_);
    pending_target_ = 0;
    return Provision::kReady;
  }
  std::lock_guard lock(mu_);
  // The connect deadline anchors at the first request for this target: a
  // coordinator re-arbitrating every few hundred ms re-issues the same
  // pool target, and resetting the clock each time would slide the
  // deadline forever — a stuck join would never fail, never surface, and
  // the stranded-grant reclaim would never run.
  if (pending_target_ != want) {
    pending_target_ = want;
    pending_since_ = cfg_.clock->now();
  }
  if (!cfg_.manual_pump && !provision_thread_.joinable()) {
    stop_ = false;
    provision_thread_ =
        std::jthread([this](std::stop_token st) { provision_loop(st); });
  }
  provision_cv_.notify_all();
  return Provision::kPending;
}

bool RemoteWorkerBackend::pump_step(Outcome& out) {
  std::unique_lock lock(mu_);
  const int target = pending_target_;
  if (target == 0) return false;
  std::vector<int> missing;
  for (int w = 0; w < target; ++w) {
    if (!session_live(w)) missing.push_back(w);
  }
  if (missing.empty()) {
    pending_target_ = 0;
    out = Outcome{result_, target, true};
    return true;
  }
  // One join attempt per missing worker, so a batch grow starts every join
  // clock in the same pass. The factory may block (a real fork + hello round
  // trip): never under mu_, or the pool's control plane would stall behind a
  // slow join.
  lock.unlock();
  bool failed = false;
  std::vector<std::pair<int, std::unique_ptr<Transport>>> joined;
  for (const int w : missing) {
    TransportFactory::Connect c = factory_.try_connect(w);
    if (c.failed) {
      failed = true;
      break;
    }
    if (c.transport != nullptr) joined.emplace_back(w, std::move(c.transport));
  }
  lock.lock();
  // Sessions that joined are installed regardless of staleness — remote
  // capacity is additive and a superseding request will want them too.
  for (auto& [w, transport] : joined) {
    Session& s = *sessions_[static_cast<std::size_t>(w)];
    std::lock_guard slock(s.mu);
    s.transport = std::move(transport);
    s.next_seq = 1;
    s.open_lease = 0;
    s.batch_count = 0;
    s.retire_requested.store(false, std::memory_order_relaxed);
    sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  }
  if (pending_target_ != target) return true;  // superseded; re-evaluate
  if (failed) {
    pending_target_ = 0;
    provision_failures_.fetch_add(1, std::memory_order_relaxed);
    out = Outcome{result_, target, false};
    return true;
  }
  bool all = true;
  for (int w = 0; w < target && all; ++w) all = session_live(w);
  if (all) {
    pending_target_ = 0;
    out = Outcome{result_, target, true};
    return true;
  }
  // Still joining: fail the whole request once the connect deadline passes.
  if (cfg_.clock->now() - pending_since_ >= cfg_.connect_timeout) {
    pending_target_ = 0;
    provision_failures_.fetch_add(1, std::memory_order_relaxed);
    out = Outcome{result_, target, false};
    return true;
  }
  return !joined.empty();
}

void RemoteWorkerBackend::pump() {
  // Manual mode has no heartbeat sweep: the pump is also where stale batch
  // windows flush once the virtual clock passed their deadline.
  if (cfg_.lease_batch > 1) {
    for (int w = 0; w < static_cast<int>(sessions_.size()); ++w) {
      flush_stale_batch(w);
    }
  }
  for (;;) {
    Outcome out;
    const bool progressed = pump_step(out);
    if (out.cb) {
      // No backend lock held: the callback takes the pool mutex and may
      // re-enter provision() (coordinator reclaim -> retry grow).
      out.cb(out.target, out.ok);
      continue;
    }
    if (!progressed) return;
  }
}

void RemoteWorkerBackend::provision_loop(const std::stop_token& st) {
  for (;;) {
    bool have_pending = false;
    {
      std::unique_lock lock(mu_);
      const Duration interval =
          cfg_.heartbeat_interval > 0.0 ? cfg_.heartbeat_interval : 3600.0;
      provision_cv_.wait_for(lock, std::chrono::duration<double>(interval),
                             [&] {
                               return stop_ || st.stop_requested() ||
                                      pending_target_ > 0;
                             });
      if (stop_ || st.stop_requested()) return;
      have_pending = pending_target_ > 0;
    }
    if (!have_pending) {
      // Idle: this is where partitions on quiet sessions get detected —
      // a lease-free live session that stops answering heartbeats is
      // declared lost (and re-provisioned on the next grow).
      heartbeat_sweep();
      continue;
    }
    Outcome out;
    const bool progressed = pump_step(out);
    if (out.cb) out.cb(out.target, out.ok);
    if (!progressed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void RemoteWorkerBackend::heartbeat_sweep() {
  if (cfg_.heartbeat_interval <= 0.0) return;
  for (int w = 0; w < static_cast<int>(sessions_.size()); ++w) {
    // Probe BEFORE flushing: a stale window on a partitioned worker would
    // otherwise flush into the void and wait out a whole complete_timeout
    // (holding the session mutex, stalling the rest of the sweep) before
    // the probe could run — partition detection mid-batch would take
    // complete_timeout + heartbeat_timeout instead of one heartbeat. The
    // probe tears the dead session down first, so the stale window is
    // dropped — never leased into a partition.
    //
    // session_live's try_lock makes this a cheap scan; probe() itself
    // short-circuits sessions with an open lease (they are answering by
    // definition) and tears down the ones that time out.
    if (session_live(w)) probe(w);
    // A batch window whose owner went quiet must not pend forever: the
    // sweep gives the flush deadline teeth on idle (live) sessions.
    if (cfg_.lease_batch > 1) flush_stale_batch(w);
  }
}

void RemoteWorkerBackend::release(int /*have*/, int want) {
  {
    // A shrink supersedes any pending grow: the pool's requested LP moved
    // below it, so the late join callback would be discarded anyway — stop
    // chasing the stale target.
    std::lock_guard lock(mu_);
    pending_target_ = 0;
  }
  // Everything at index >= want goes — `have` deliberately ignored: an
  // abandoned pending grow may have joined sessions above the effective LP
  // the pool knows about, and those must not linger.
  const int from = std::max(0, want);
  const int to = static_cast<int>(sessions_.size());
  for (int w = from; w < to; ++w) {
    Session& s = *sessions_[static_cast<std::size_t>(w)];
    // try_lock: release() runs under the pool's control mutex, and a
    // session whose lease is waiting out a completion timeout holds its
    // mutex for up to complete_timeout — blocking here would freeze the
    // pool control plane. The lease owner retires the session at its next
    // boundary instead. Same deferral for an OPEN lease whose owner is
    // mid-closure (session mutex free): retiring under it would tear down
    // a healthy round trip and misreport it as a loss.
    std::unique_lock lock(s.mu, std::try_to_lock);
    if (!lock.owns_lock() || s.open_lease != 0 || s.batch_count != 0) {
      // (Without the lock, s.transport may not be read; an over-set flag on
      // an empty session is harmless — the next toucher clears it.) A
      // pending batch window defers too: its owner — a bracket mid-task —
      // flushes and then honors the retire at its next task_end.
      s.retire_requested.store(true, std::memory_order_release);
      continue;
    }
    if (s.transport == nullptr) {
      s.retire_requested.store(false, std::memory_order_relaxed);
      continue;
    }
    retire_session_locked(s, w);
  }
}

void RemoteWorkerBackend::retire_session_locked(Session& s, int worker) {
  s.retire_requested.store(false, std::memory_order_relaxed);
  if (s.transport == nullptr) {
    s.batch_count = 0;
    return;
  }
  // A pending batch window ships fire-and-forget: the transport is about to
  // close, so its Complete could never be read — no lease is opened (the
  // invariant stays exact) but the brackets are still accounted.
  if (s.batch_count > 0) {
    const std::uint64_t count = s.batch_count;
    s.batch_count = 0;
    if (s.transport->send(WireFrame{WireFrameType::kSubmit,
                                    static_cast<std::uint32_t>(worker),
                                    s.next_seq++, s.batch_hint, count})) {
      tasks_batched_.fetch_add(count, std::memory_order_relaxed);
      batch_flushes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  s.transport->send(WireFrame{WireFrameType::kRetire,
                              static_cast<std::uint32_t>(worker), s.next_seq++,
                              0, 0});
  s.transport->close();
  s.transport.reset();
  sessions_retired_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t RemoteWorkerBackend::task_begin(int worker,
                                              std::uint64_t queued_hint) {
  if (worker < 0 || worker >= static_cast<int>(sessions_.size())) return 0;
  Session& s = *sessions_[static_cast<std::size_t>(worker)];
  std::lock_guard lock(s.mu);
  if (s.retire_requested.load(std::memory_order_acquire)) {
    retire_session_locked(s, worker);  // honor a deferred release() now
    return 0;
  }
  if (s.transport == nullptr || !s.transport->alive()) return 0;
  if (cfg_.lease_batch > 1) {
    // Batched mode: no wire traffic here. A bracket that will open the
    // window captures the backlog hint the eventual Submit piggybacks;
    // task_end counts, anchors the flush deadline and flushes.
    if (s.batch_count == 0) s.batch_hint = queued_hint;
    return kBatchToken;
  }
  const std::uint64_t seq = s.next_seq++;
  if (!s.transport->send(WireFrame{WireFrameType::kSubmit,
                               static_cast<std::uint32_t>(worker), seq,
                               queued_hint, 0})) {
    drop_session_locked(s);
    return 0;  // no lease opened: the task runs purely locally
  }
  leases_.fetch_add(1, std::memory_order_relaxed);
  s.open_lease = seq;
  return seq;
}

void RemoteWorkerBackend::task_end(int worker, std::uint64_t lease) {
  if (lease == 0) return;
  Session& s = *sessions_[static_cast<std::size_t>(worker)];
  std::lock_guard lock(s.mu);
  // A release() that arrived mid-lease deferred to us: honor it once the
  // lease is resolved (destroyed before the lock guard releases s.mu).
  struct DeferredRetire {
    RemoteWorkerBackend* backend;
    Session& s;
    int worker;
    ~DeferredRetire() {
      if (s.retire_requested.load(std::memory_order_acquire)) {
        backend->retire_session_locked(s, worker);
      }
    }
  } deferred{this, s, worker};
  if (lease == kBatchToken) {
    if (s.transport == nullptr || !s.transport->alive()) {
      // The session died inside the window: nothing was ever shipped for
      // these brackets (no lease opened), and the tasks themselves already
      // ran in-process — drop the window.
      s.batch_count = 0;
      return;
    }
    // The flush deadline anchors when a bracket enters an EMPTY window —
    // not at this task's begin: a named call inside the task may already
    // have flushed the window that was open then, and a deadline anchored
    // before that flush would find the fresh window stale at once.
    if (s.batch_count == 0) s.batch_since = cfg_.clock->now();
    ++s.batch_count;
    const bool full =
        s.batch_count >= static_cast<std::uint64_t>(cfg_.lease_batch);
    const bool stale =
        cfg_.clock->now() - s.batch_since >= cfg_.batch_flush;
    if (full || stale || s.retire_requested.load(std::memory_order_acquire)) {
      flush_batch_locked(s, worker);
    }
    return;
  }
  // A named call inside the task settled this bracket already (its
  // Complete arrived in the call's receive loop), or the session dropped
  // under it and recovered it: either way it is accounted.
  if (s.open_lease != lease) return;
  await_complete_locked(s, lease);
}

void RemoteWorkerBackend::await_complete_locked(Session& s,
                                                std::uint64_t lease) {
  s.open_lease = 0;
  const TimePoint deadline = cfg_.clock->now() + cfg_.complete_timeout;
  for (;;) {
    WireFrame f;
    const Duration wait = std::max(0.0, deadline - cfg_.clock->now());
    if (s.transport->recv(f, wait)) {
      if (f.type == WireFrameType::kComplete) {
        if (f.seq == lease) {
          completes_.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        // Duplicate of an already-closed lease, or the stale completion of
        // a lease recovered earlier (reorder): count and ignore — never
        // double-close.
        ignored_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (f.type == WireFrameType::kHeartbeatAck) {
        hb_acked_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      continue;  // kRetired etc.: nothing to do
    }
    if (!s.transport->alive()) {
      // Crash: the completion can never arrive; the task itself already ran
      // in-process, so only the lease is recovered — never the work.
      losses_.fetch_add(1, std::memory_order_relaxed);
      drop_session_locked(s);
      return;
    }
    // recv yielded nothing on a live link. Under a virtual clock that is
    // terminal — only the test can advance time, so either the deadline
    // passed (a dropped/held completion) or the test under-advanced; both
    // resolve deterministically as a recovered lease. Real time keeps
    // waiting until the deadline.
    if (cfg_.manual_pump || cfg_.clock->now() >= deadline) {
      losses_.fetch_add(1, std::memory_order_relaxed);
      return;  // link stays up: a late completion is ignored on arrival
    }
  }
}

void RemoteWorkerBackend::flush_batch_locked(Session& s, int worker) {
  if (s.batch_count == 0) return;
  const std::uint64_t count = s.batch_count;
  s.batch_count = 0;
  const std::uint64_t seq = s.next_seq++;
  if (!s.transport->send(WireFrame{WireFrameType::kSubmit,
                                   static_cast<std::uint32_t>(worker), seq,
                                   s.batch_hint, count})) {
    drop_session_locked(s);
    return;  // never leased: the window's tasks already ran locally
  }
  leases_.fetch_add(1, std::memory_order_relaxed);
  tasks_batched_.fetch_add(count, std::memory_order_relaxed);
  batch_flushes_.fetch_add(1, std::memory_order_relaxed);
  await_complete_locked(s, seq);
}

void RemoteWorkerBackend::flush_stale_batch(int worker) {
  Session& s = *sessions_[static_cast<std::size_t>(worker)];
  // try_lock: a held mutex means a bracket or flush is in progress — it
  // will handle the window itself.
  std::unique_lock lock(s.mu, std::try_to_lock);
  if (!lock.owns_lock()) return;
  if (s.transport == nullptr || !s.transport->alive() || s.batch_count == 0) {
    return;
  }
  if (cfg_.clock->now() - s.batch_since < cfg_.batch_flush) return;
  flush_batch_locked(s, worker);
}

bool RemoteWorkerBackend::probe(int worker) {
  if (worker < 0 || worker >= static_cast<int>(sessions_.size())) return false;
  Session& s = *sessions_[static_cast<std::size_t>(worker)];
  // try_lock, same rationale as session_live: a held mutex means a lease or
  // flush is mid-flight — the session is answering by definition, and
  // blocking here would chain the sweep behind a completion timeout.
  std::unique_lock lock(s.mu, std::try_to_lock);
  if (!lock.owns_lock()) return true;
  if (s.transport == nullptr || !s.transport->alive()) return false;
  // A lease is in flight (the owner is between task_begin and task_end, so
  // the session mutex was free but the inbox belongs to the lease): pulling
  // frames here would eat the lease's completion and convert a healthy
  // round trip into a recovered loss. An actively leasing session is
  // answering by definition — report it alive without probing.
  if (s.open_lease != 0) return true;
  const std::uint64_t seq = s.next_seq++;
  if (!s.transport->send(WireFrame{WireFrameType::kHeartbeat,
                               static_cast<std::uint32_t>(worker), seq, 0, 0})) {
    drop_session_locked(s);
    return false;
  }
  const TimePoint deadline = cfg_.clock->now() + cfg_.heartbeat_timeout;
  for (;;) {
    WireFrame f;
    const Duration wait = std::max(0.0, deadline - cfg_.clock->now());
    if (s.transport->recv(f, wait)) {
      if (f.type == WireFrameType::kHeartbeatAck && f.seq == seq) {
        hb_acked_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      if (f.type == WireFrameType::kComplete) {
        ignored_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (!s.transport->alive() || cfg_.manual_pump ||
        cfg_.clock->now() >= deadline) {
      // Partitioned or dead: declare the worker lost; the next grow
      // re-provisions it.
      drop_session_locked(s);
      return false;
    }
  }
}

NamedCallResult RemoteWorkerBackend::call_named(int worker, WireMuscleId id,
                                                const PodValue& arg) {
  NamedCallResult r;
  if (worker < 0 || worker >= static_cast<int>(sessions_.size())) return r;
  Session& s = *sessions_[static_cast<std::size_t>(worker)];
  std::lock_guard lock(s.mu);
  if (s.transport == nullptr || !s.transport->alive()) return r;
  const std::vector<std::uint8_t> payload = encode_pod(arg);
  if (payload.size() > kMaxNamedPayload) {
    // Never ships: an oversized argument is the caller's bug, reported the
    // same way the worker host reports one — without touching the link (no
    // lease opened, so it appears in no counter).
    r.transported = true;
    r.status = NamedStatus::kBadArgument;
    return r;
  }
  // An open batch window rides in the same write, its Submit first so the
  // session's inbox stays ordered; one receive loop then settles both
  // leases — one send and one wait per call instead of two of each.
  const auto who = static_cast<std::uint32_t>(worker);
  const std::uint64_t window = s.batch_count;
  std::uint64_t flush_seq = 0;
  OutFrame frames[2];
  std::size_t n = 0;
  if (window > 0) {
    s.batch_count = 0;
    flush_seq = s.next_seq++;
    frames[n++] = OutFrame{
        WireFrame{WireFrameType::kSubmit, who, flush_seq, s.batch_hint, window}};
  }
  const std::uint64_t seq = s.next_seq++;
  frames[n++] = OutFrame{
      WireFrame{WireFrameType::kSubmitNamed, who, seq, id,
                static_cast<std::uint64_t>(payload.size())},
      payload.data(), payload.size()};
  if (!s.transport->send_frames({frames, n})) {
    drop_session_locked(s);
    return r;  // nothing leased: the window's tasks already ran in-process
  }
  leases_.fetch_add(n, std::memory_order_relaxed);
  named_calls_.fetch_add(1, std::memory_order_relaxed);
  if (window > 0) {
    tasks_batched_.fetch_add(window, std::memory_order_relaxed);
    batch_flushes_.fetch_add(1, std::memory_order_relaxed);
  }
  // Leases this loop resolves: the call itself and the window flush. The
  // bracket of an unbatched pool task (open_lease) is settled here too when
  // its Complete shows up — it was written before our request, so it comes
  // first — which spares task_end a wait for a frame already consumed.
  bool call_open = true;
  const TimePoint deadline = cfg_.clock->now() + cfg_.complete_timeout;
  std::vector<std::uint8_t> frame_payload;
  while (call_open || flush_seq != 0) {
    WireFrame f;
    const Duration wait = std::max(0.0, deadline - cfg_.clock->now());
    if (s.transport->recv(f, frame_payload, wait)) {
      if (f.type == WireFrameType::kResultNamed && call_open && f.seq == seq) {
        call_open = false;
        completes_.fetch_add(1, std::memory_order_relaxed);
        r.transported = true;
        r.status = f.a <= static_cast<std::uint64_t>(NamedStatus::kUnsupported)
                       ? static_cast<NamedStatus>(f.a)
                       : NamedStatus::kUnsupported;
        if (r.status == NamedStatus::kOk &&
            !decode_pod(frame_payload.data(), frame_payload.size(), r.value)) {
          r.status = NamedStatus::kBadArgument;  // malformed result payload
        }
        if (r.status != NamedStatus::kOk) {
          named_errors_.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      if (f.type == WireFrameType::kComplete && f.seq != 0 &&
          (f.seq == flush_seq || f.seq == s.open_lease)) {
        if (f.seq == flush_seq) {
          flush_seq = 0;
        } else {
          s.open_lease = 0;
        }
        completes_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (f.type == WireFrameType::kComplete ||
          f.type == WireFrameType::kResultNamed) {
        // Duplicate or stale delivery of an earlier lease: count and ignore.
        ignored_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (f.type == WireFrameType::kHeartbeatAck) {
        hb_acked_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    const bool dead = !s.transport->alive();
    if (dead || cfg_.manual_pump || cfg_.clock->now() >= deadline) {
      // Every lease of this call still open is recovered, once. A dead link
      // is torn down (which recovers an open bracket too); a live one stays
      // up and a late frame is ignored on arrival. `transported` stays
      // false when the call itself never resolved.
      const int open = (call_open ? 1 : 0) + (flush_seq != 0 ? 1 : 0);
      losses_.fetch_add(static_cast<std::uint64_t>(open),
                        std::memory_order_relaxed);
      if (dead) drop_session_locked(s);
      return r;
    }
  }
  return r;
}

void RemoteWorkerBackend::drop_session_locked(Session& s) {
  // A bracket still open on the dying link can never complete: recover it
  // here, so its task_end finds it accounted.
  if (s.open_lease != 0) {
    s.open_lease = 0;
    losses_.fetch_add(1, std::memory_order_relaxed);
  }
  if (s.transport != nullptr) {
    s.transport->close();
    s.transport.reset();
  }
  sessions_lost_.fetch_add(1, std::memory_order_relaxed);
}

void RemoteWorkerBackend::cancel() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
    pending_target_ = 0;
  }
  provision_cv_.notify_all();
  if (provision_thread_.joinable()) {
    provision_thread_.request_stop();
    provision_thread_.join();
    provision_thread_ = std::jthread();
  }
  std::lock_guard lock(mu_);
  stop_ = false;  // a later provision() may restart the loop
}

int RemoteWorkerBackend::live_sessions() const {
  int live = 0;
  for (int w = 0; w < static_cast<int>(sessions_.size()); ++w) {
    if (session_live(w)) ++live;
  }
  return live;
}

RemoteBackendStats RemoteWorkerBackend::stats() const {
  RemoteBackendStats s;
  s.leases = leases_.load(std::memory_order_relaxed);
  s.completes = completes_.load(std::memory_order_relaxed);
  s.losses_recovered = losses_.load(std::memory_order_relaxed);
  s.ignored_completes = ignored_.load(std::memory_order_relaxed);
  s.tasks_batched = tasks_batched_.load(std::memory_order_relaxed);
  s.batch_flushes = batch_flushes_.load(std::memory_order_relaxed);
  s.named_calls = named_calls_.load(std::memory_order_relaxed);
  s.named_errors = named_errors_.load(std::memory_order_relaxed);
  s.heartbeats_acked = hb_acked_.load(std::memory_order_relaxed);
  s.provision_failures = provision_failures_.load(std::memory_order_relaxed);
  s.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  s.sessions_lost = sessions_lost_.load(std::memory_order_relaxed);
  s.sessions_retired = sessions_retired_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace askel
