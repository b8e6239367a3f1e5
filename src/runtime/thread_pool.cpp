#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "runtime/worker_backend.hpp"

namespace askel {

namespace {

// Identifies the pool worker running on this thread (if any) so submit() can
// route nested tasks to the worker's own deque without any global lock.
// `rot` rotates the tenant-queue scan start per pick, so equal-scored
// tenants round-robin instead of always favoring low slots.
struct WorkerTls {
  ResizableThreadPool* pool = nullptr;
  int index = -1;
  unsigned rot = 0;
};
thread_local WorkerTls tls_worker;

}  // namespace

ResizableThreadPool::ResizableThreadPool(int initial_lp, int max_lp, const Clock* clock)
    : clock_(clock), max_lp_(std::max(1, max_lp)), gauge_(clock), lp_limit_(max_lp_),
      default_backend_(std::make_unique<ThreadBackend>()) {
  default_backend_->bind(
      [this](int target, bool ok) { on_provision_result(target, ok); });
  backend_.store(default_backend_.get(), std::memory_order_release);
  // All deque slots exist up front (stable addresses; stealers may scan any
  // slot without synchronizing with worker spawns).
  deques_.reserve(static_cast<std::size_t>(max_lp_));
  for (int k = 0; k < max_lp_; ++k) deques_.push_back(std::make_unique<WorkDeque>());
  std::lock_guard lock(mu_);
  const int lp = std::clamp(initial_lp, 1, max_lp_);
  target_lp_.store(lp, std::memory_order_release);
  requested_lp_.store(lp, std::memory_order_release);
  lp_history_.record(clock_->now(), lp);
  spawn_locked(lp);
}

ResizableThreadPool::~ResizableThreadPool() {
  // Cancel pending provisioning first (joins backend timers/threads); no
  // lock held — in-flight provision callbacks take mu_ themselves and
  // complete before cancel() returns.
  backend_.load(std::memory_order_acquire)->cancel();
  {
    std::lock_guard lock(mu_);
    stopping_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  park_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ResizableThreadPool::set_backend(WorkerBackend* backend) {
  WorkerBackend* old = nullptr;
  {
    std::lock_guard lock(mu_);
    WorkerBackend* next = backend != nullptr ? backend : default_backend_.get();
    WorkerBackend* cur = backend_.load(std::memory_order_relaxed);
    if (cur == next) return;
    next->bind([this](int target, bool ok) { on_provision_result(target, ok); });
    backend_.store(next, std::memory_order_release);
    backend_remote_.store(next->remote(), std::memory_order_release);
    // Bring the new backend up to the current effective capacity (remote
    // sessions for already-running workers). A kPending join lands through
    // the callback as a no-op (target == effective); a failure here is not a
    // grow failure — absent sessions just mean tasks run purely locally.
    (void)next->provision(0, target_lp_.load(std::memory_order_relaxed));
    old = cur;
  }
  // Outside mu_: cancel joins backend threads whose callbacks take mu_.
  if (old != nullptr) old->cancel();
}

WorkerBackend* ResizableThreadPool::backend() const {
  return backend_.load(std::memory_order_acquire);
}

std::uint64_t ResizableThreadPool::provision_failures() const {
  return provision_failures_.load(std::memory_order_acquire);
}

void ResizableThreadPool::set_provision_failure_handler(
    ProvisionFailureHandler handler) {
  std::unique_lock lock(handler_mu_);
  provision_failure_handler_ = std::move(handler);
  // Don't return while an invocation of the OLD handler is still running on
  // a backend thread: the coordinator uninstalls its handler from its
  // destructor, and returning early would leave that thread calling into a
  // dying object. (The waiter never deadlocks a self-notifying thread: the
  // handler itself runs with handler_mu_ released.)
  handler_cv_.wait(lock, [&] { return handler_inflight_ == 0; });
}

void ResizableThreadPool::notify_provision_failure(int failed_target) {
  ProvisionFailureHandler handler;
  {
    std::lock_guard lock(handler_mu_);
    handler = provision_failure_handler_;
    if (handler) ++handler_inflight_;
  }
  if (handler) {
    handler(failed_target, effective_lp());
    {
      std::lock_guard lock(handler_mu_);
      --handler_inflight_;
    }
    handler_cv_.notify_all();
  }
}

void ResizableThreadPool::on_provision_result(int target, bool ok) {
  bool joined = false;
  int failed_target = 0;
  {
    std::lock_guard lock(mu_);
    if (!stopping_.load(std::memory_order_relaxed)) {
      if (ok) {
        // Same stale-join guards as the PR 1 provision timer: a late join
        // must not exceed the latest request nor shrink a larger effective
        // value.
        if (target > target_lp_.load(std::memory_order_relaxed) &&
            target <= requested_lp_.load(std::memory_order_relaxed)) {
          apply_target_locked(target);
          joined = true;
        }
      } else if (target == requested_lp_.load(std::memory_order_relaxed) &&
                 target > target_lp_.load(std::memory_order_relaxed)) {
        // The live pending grow cannot materialize: abandon it so target and
        // requested agree again (a stale failure — a newer request is already
        // pending — is simply ignored; the newer outcome governs).
        requested_lp_.store(target_lp_.load(std::memory_order_relaxed),
                            std::memory_order_release);
        provision_failures_.fetch_add(1, std::memory_order_acq_rel);
        failed_target = target;
      }
    }
  }
  if (joined) {
    work_cv_.notify_all();
    park_cv_.notify_all();
  }
  if (failed_target != 0) notify_provision_failure(failed_target);
}

void ResizableThreadPool::submit(Task task) { submit(std::move(task), 0); }

void ResizableThreadPool::submit(Task task, int tenant) {
  assert(!stopping_.load(std::memory_order_relaxed) && "submit after shutdown");
  // Tagged submits only: the untagged hot path pays one predictable branch.
  if (tenant > 0) {
    if (tenant_dispatch_.load(std::memory_order_relaxed) ==
        static_cast<int>(TenantDispatch::kWeighted)) {
      inflight_.fetch_add(1, std::memory_order_acq_rel);
      tenant_tasks_.fetch_add(1, std::memory_order_relaxed);
      queued_.fetch_add(1, std::memory_order_seq_cst);
      for (;;) {
        TenantState& ts = get_tenant_state(tenant);
        std::lock_guard lock(ts.mu);
        // Ownership recheck under ts.mu (where every retirement happens): a
        // retire_tenant racing between the lookup and this lock must not
        // receive the task into an orphaned state the dispatch scan would
        // never serve — re-resolve instead (recreates or reclaims a state).
        if (ts.id.load(std::memory_order_relaxed) != tenant) continue;
        ts.submitted.fetch_add(1, std::memory_order_relaxed);
        // The queued gauge is bumped before the push (both under ts.mu):
        // scanners may transiently see a count without a task — they
        // re-check under ts.mu — but never a task without a count, so the
        // queued_ sleep/wake protocol stays exact.
        ts.queued.fetch_add(1, std::memory_order_relaxed);
        ts.tasks.push_back(std::move(task));
        break;
      }
      maybe_wake_one();
      return;
    }
    // kFifo: accounting only, but still under the ownership check — a
    // retire racing this bump must not land the count on a reused state.
    for (;;) {
      TenantState& ts = get_tenant_state(tenant);
      std::lock_guard lock(ts.mu);
      if (ts.id.load(std::memory_order_relaxed) != tenant) continue;
      ts.submitted.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  // Counted before the push so queued_ can never underflow when a worker
  // takes the task (and decrements) between push and count. seq_cst pairs
  // with the sleeper's `idle_sleepers_++; read queued_` sequence: either we
  // see the sleeper (and notify), or the sleeper's predicate sees our
  // increment (and does not sleep).
  queued_.fetch_add(1, std::memory_order_seq_cst);
  if (tls_worker.pool == this) {
    deques_[static_cast<std::size_t>(tls_worker.index)]->push(std::move(task));
  } else {
    injected_.push(std::move(task));
  }
  maybe_wake_one();
}

ResizableThreadPool::TenantState* ResizableThreadPool::find_tenant_state(
    int tenant) const {
  if (tenant <= 0) return nullptr;
  TenantState& slot =
      tenant_slots_[static_cast<std::size_t>((tenant - 1) % kTenantSlots)];
  if (slot.id.load(std::memory_order_acquire) == tenant) return &slot;
  if (overflow_states_.load(std::memory_order_acquire) == 0) return nullptr;
  std::lock_guard lock(overflow_mu_);
  const auto it = overflow_.find(tenant);
  return it == overflow_.end() ? nullptr : it->second.get();
}

ResizableThreadPool::TenantState& ResizableThreadPool::get_tenant_state(
    int tenant) {
  TenantState& slot =
      tenant_slots_[static_cast<std::size_t>((tenant - 1) % kTenantSlots)];
  if (slot.id.load(std::memory_order_acquire) == tenant) return slot;
  // Miss path (first touch of this id, or an id living in the side map),
  // serialized under overflow_mu_. An existing side-map entry must win over
  // claiming a freed slot: a tenant that overflowed while a collider held
  // the slot would otherwise fork its state — grant and counts split across
  // two TenantStates — the moment the collider retires and frees the slot.
  // Invariant: a tenant has a slot OR a side-map entry, never both.
  std::lock_guard lock(overflow_mu_);
  return resolve_tenant_state_locked(tenant);
}

ResizableThreadPool::TenantState& ResizableThreadPool::resolve_tenant_state_locked(
    int tenant) {
  const int slot_index = (tenant - 1) % kTenantSlots;
  TenantState& slot = tenant_slots_[static_cast<std::size_t>(slot_index)];
  if (slot.id.load(std::memory_order_acquire) == tenant) return slot;
  if (overflow_states_.load(std::memory_order_acquire) > 0) {
    const auto it = overflow_.find(tenant);
    if (it != overflow_.end()) return *it->second;
  }
  int cur = 0;
  if (slot.id.compare_exchange_strong(cur, tenant, std::memory_order_acq_rel)) {
    // Publish the claim to the dispatch scan (monotonic max; retire_tenant
    // may later clear the slot, so after churn the mark can over-count —
    // the scan skips id == 0 slots — but it never under-counts).
    int hwm = tenant_slot_hwm_.load(std::memory_order_relaxed);
    while (hwm < slot_index + 1 &&
           !tenant_slot_hwm_.compare_exchange_weak(hwm, slot_index + 1,
                                                   std::memory_order_acq_rel)) {
    }
    return slot;
  }
  if (cur == tenant) return slot;  // lost the CAS to a same-tenant claim
  // Slot collision (or > kTenantSlots live ids): exact side map, so two live
  // tenants never merge counts or dispatch weights. retire_tenant moves dead
  // entries to the reuse pool, keeping the map O(peak live overflow ids)
  // rather than O(distinct ids ever).
  std::unique_ptr<TenantState>& state = overflow_[tenant];
  if (state == nullptr) {
    if (!retired_states_.empty()) {
      state = std::move(retired_states_.back());
      retired_states_.pop_back();
      state->id.store(tenant, std::memory_order_relaxed);
    } else {
      state = std::make_unique<TenantState>();
      state->id.store(tenant, std::memory_order_relaxed);
    }
    overflow_states_.fetch_add(1, std::memory_order_release);
  }
  return *state;
}

bool ResizableThreadPool::retire_tenant(int tenant) {
  if (tenant <= 0) return false;
  TenantState& slot =
      tenant_slots_[static_cast<std::size_t>((tenant - 1) % kTenantSlots)];
  if (slot.id.load(std::memory_order_acquire) == tenant) {
    std::lock_guard qlock(slot.mu);
    // Recheck under the lock: every id-clearing transition holds slot.mu,
    // so a concurrent retire of the same id (or a retire + fresh claim by a
    // new id) can no longer slip between our check and our reset and have
    // us wipe a live tenant's state.
    if (slot.id.load(std::memory_order_relaxed) != tenant) return false;
    // queued != 0 with an empty deque means a claimed task's gauge decrement
    // is still in flight — running covers that window too, but check both.
    if (!slot.tasks.empty() || slot.queued.load(std::memory_order_relaxed) != 0 ||
        slot.running.load(std::memory_order_acquire) != 0) {
      return false;  // still draining; the state must stay addressable
    }
    slot.grant.store(0, std::memory_order_relaxed);
    slot.submitted.store(0, std::memory_order_relaxed);
    slot.ordering.store(0, std::memory_order_relaxed);
    // Publish last: a find_tenant_state racing with this sees either the
    // full old state or an unclaimed slot, never a half-reset claim.
    slot.id.store(0, std::memory_order_release);
    return true;
  }
  if (overflow_states_.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard lock(overflow_mu_);
  const auto it = overflow_.find(tenant);
  if (it == overflow_.end()) return false;
  TenantState& ts = *it->second;
  {
    std::lock_guard qlock(ts.mu);
    if (!ts.tasks.empty() || ts.queued.load(std::memory_order_relaxed) != 0 ||
        ts.running.load(std::memory_order_acquire) != 0) {
      return false;
    }
    ts.grant.store(0, std::memory_order_relaxed);
    ts.submitted.store(0, std::memory_order_relaxed);
    ts.ordering.store(0, std::memory_order_relaxed);
    ts.id.store(0, std::memory_order_relaxed);
  }
  // Into the reuse pool, not freed: a worker that grabbed the pointer from a
  // concurrent dispatch scan may still lock ts.mu, find the queue empty and
  // move on — valid memory either way.
  retired_states_.push_back(std::move(it->second));
  overflow_.erase(it);
  overflow_states_.fetch_sub(1, std::memory_order_release);
  return true;
}

std::size_t ResizableThreadPool::tenant_overflow_size() const {
  std::lock_guard lock(overflow_mu_);
  return overflow_.size();
}

void ResizableThreadPool::set_tenant_grant(int tenant, int grant) {
  if (tenant <= 0) return;
  get_tenant_state(tenant).grant.store(std::max(0, grant),
                                       std::memory_order_relaxed);
}

void ResizableThreadPool::set_tenant_grants(
    const std::vector<std::pair<int, int>>& grants) {
  // Pass 1: direct-slot hits store lock-free; side-map (or first-touch)
  // misses are deferred.
  std::vector<std::pair<int, int>> misses;
  for (const auto& [tenant, grant] : grants) {
    if (tenant <= 0) continue;
    TenantState& slot =
        tenant_slots_[static_cast<std::size_t>((tenant - 1) % kTenantSlots)];
    if (slot.id.load(std::memory_order_acquire) == tenant) {
      slot.grant.store(std::max(0, grant), std::memory_order_relaxed);
    } else {
      misses.push_back({tenant, grant});
    }
  }
  if (misses.empty()) return;
  // Pass 2: every miss resolved under one overflow_mu_ round trip.
  std::lock_guard lock(overflow_mu_);
  for (const auto& [tenant, grant] : misses) {
    resolve_tenant_state_locked(tenant).grant.store(
        std::max(0, grant), std::memory_order_relaxed);
  }
}

int ResizableThreadPool::tenant_grant(int tenant) const {
  const TenantState* ts = find_tenant_state(tenant);
  return ts == nullptr ? 0 : ts->grant.load(std::memory_order_relaxed);
}

int ResizableThreadPool::tenant_queued(int tenant) const {
  const TenantState* ts = find_tenant_state(tenant);
  return ts == nullptr ? 0 : ts->queued.load(std::memory_order_relaxed);
}

int ResizableThreadPool::tenant_running(int tenant) const {
  const TenantState* ts = find_tenant_state(tenant);
  return ts == nullptr ? 0 : ts->running.load(std::memory_order_relaxed);
}

void ResizableThreadPool::set_tenant_dispatch(TenantDispatch mode) {
  tenant_dispatch_.store(static_cast<int>(mode), std::memory_order_relaxed);
}

TenantDispatch ResizableThreadPool::tenant_dispatch() const {
  return static_cast<TenantDispatch>(
      tenant_dispatch_.load(std::memory_order_relaxed));
}

void ResizableThreadPool::set_tenant_ordering(int tenant,
                                              TenantOrdering ordering) {
  if (tenant <= 0) return;
  get_tenant_state(tenant).ordering.store(static_cast<int>(ordering),
                                          std::memory_order_relaxed);
}

TenantOrdering ResizableThreadPool::tenant_ordering(int tenant) const {
  const TenantState* ts = find_tenant_state(tenant);
  return ts == nullptr ? TenantOrdering::kLifo
                       : static_cast<TenantOrdering>(
                             ts->ordering.load(std::memory_order_relaxed));
}

ResizableThreadPool::TenantState* ResizableThreadPool::pick_tenant_queue(
    unsigned rot) const {
  TenantState* best = nullptr;
  double best_score = 0.0;
  const auto consider = [&](TenantState& ts) {
    if (ts.queued.load(std::memory_order_relaxed) <= 0) return;
    const int grant = ts.grant.load(std::memory_order_relaxed);
    const int running = ts.running.load(std::memory_order_relaxed);
    // Deficit tier (scores >= 2): a tenant below its grant, most-starved
    // first — restores each grant to ~grant threads of service. Surplus
    // tier (scores <= 0.5): at/above grant, least-over first — spare
    // capacity is shared instead of compounding one tenant's lead, and a
    // zero-grant tenant is served whenever no deficit exists.
    const double score = running < grant
                             ? 1.0 + static_cast<double>(grant - running)
                             : 1.0 / (2.0 + static_cast<double>(running - grant));
    if (best == nullptr || score > best_score) {
      best = &ts;
      best_score = score;
    }
  };
  // Only claimed slots are worth touching: bound the scan by the claim
  // high-water mark so two live tenants cost 2 cache lines, not 64.
  const int hwm = tenant_slot_hwm_.load(std::memory_order_acquire);
  for (int k = 0; k < hwm; ++k) {
    TenantState& ts = tenant_slots_[(rot + static_cast<unsigned>(k)) %
                                    static_cast<unsigned>(hwm)];
    if (ts.id.load(std::memory_order_relaxed) == 0) continue;
    consider(ts);
  }
  if (overflow_states_.load(std::memory_order_acquire) > 0) {
    std::lock_guard lock(overflow_mu_);
    for (auto& [id, state] : overflow_) consider(*state);
  }
  return best;
}

void ResizableThreadPool::maybe_wake_one() {
  // Wake throttle: rouse a sleeping worker only when no thief is already
  // between wake-up and first find. Without this, a worker fanning out N
  // children pays one futex wake (and, on a loaded machine, one context
  // switch) per child; with it, wakes chain one at a time as each woken
  // thief finds work. Liveness is unaffected: a runnable worker never goes
  // to sleep while queued_ > 0 (the work_cv_ predicate re-checks), and a
  // thief that gives up decrements searching_ before that re-check.
  if (idle_sleepers_.load(std::memory_order_seq_cst) > 0 &&
      searching_.load(std::memory_order_seq_cst) == 0) {
    std::lock_guard lock(mu_);
    work_cv_.notify_one();
  }
}

bool ResizableThreadPool::try_get_task(int index, Task& out,
                                       TenantState*& from_tenant) {
  from_tenant = nullptr;
  // 1. Own deque, newest first: depth-first for nested skeletons — one map
  //    chunk completes (and its merge runs) before the next chunk starts when
  //    capacity is scarce. This matches the paper's §5 trace, where the first
  //    inner merge lands right after the first chunk (7.6 s), not after all
  //    splits.
  WorkDeque& own = *deques_[static_cast<std::size_t>(index)];
  if (own.pop(out)) {
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    return true;
  }
  // 2. Injection queue (external submits): move all of it into our own deque
  //    and pop the newest, so the cross-thread handoff is paid once per
  //    drain and external tasks keep the old global deque's newest-first
  //    order; siblings steal the rest oldest first. Under an external flood a
  //    fresh request thus overtakes the standing backlog — the FIFO baselines
  //    of service_bench and multi_tenant's aggressor scenario are measured
  //    against this order. A sibling may steal the drained tasks before our
  //    pop; then we just fall through.
  std::vector<Task> batch;
  if (injected_.take_all(batch)) {
    own.push_batch(batch);
    if (own.pop(out)) {
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
  }
  // 3. Tenant run queues, grant-weighted pick (skipped in one relaxed load
  //    when no tagged work exists, so untagged workloads pay nothing). The
  //    scored pick can lose a race to a sibling taking the same queue's last
  //    task; one re-pick covers the common case and a final miss just falls
  //    through — queued_ > 0 keeps the worker from sleeping, so it retries.
  if (tenant_tasks_.load(std::memory_order_relaxed) > 0) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      TenantState* ts = pick_tenant_queue(tls_worker.rot++);
      if (ts == nullptr) break;
      std::unique_lock qlock(ts->mu);
      if (ts->tasks.empty()) continue;
      // Service order is the tenant's knob: LIFO (default, newest first —
      // depth-first per tenant) or FIFO (oldest first — arrival order).
      if (ts->ordering.load(std::memory_order_relaxed) ==
          static_cast<int>(TenantOrdering::kFifo)) {
        out = std::move(ts->tasks.front());
        ts->tasks.pop_front();
      } else {
        out = std::move(ts->tasks.back());
        ts->tasks.pop_back();
      }
      // `running` goes up under ts->mu, before the pop is visible as an
      // empty queue: retire_tenant (which checks emptiness and running
      // under the same lock) can therefore never observe a moment where a
      // claimed task is in neither gauge.
      ts->running.fetch_add(1, std::memory_order_relaxed);
      qlock.unlock();
      ts->queued.fetch_sub(1, std::memory_order_relaxed);
      tenant_tasks_.fetch_sub(1, std::memory_order_relaxed);
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      from_tenant = ts;
      return true;
    }
  }
  // 4. Steal from a sibling — parked siblings included, so work never
  //    strands on a deque whose owner got parked mid-expansion. Batch steal:
  //    take the oldest task plus up to half of the victim's remainder, so
  //    the wake-up that got us here is amortized over several tasks. The
  //    batch is re-pushed to our own deque outside the victim's lock (no
  //    two-deque lock nesting).
  const int n = static_cast<int>(deques_.size());
  for (int k = 1; k < n; ++k) {
    const int victim = (index + k) % n;
    if (deques_[static_cast<std::size_t>(victim)]->steal_batch(out, batch)) {
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      steals_.fetch_add(1, std::memory_order_relaxed);
      if (!batch.empty()) own.push_batch(batch);
      return true;
    }
  }
  return false;
}

void ResizableThreadPool::worker_loop(int index) {
  tls_worker = WorkerTls{this, index};
  bool searching = false;  // between work_cv_ wake-up and first find
  // Busy-interval coalescing: back-to-back tasks are one busy interval on
  // the gauge, and their inflight_ decrements are batched. A worker going
  // busy→idle→busy within nanoseconds between consecutive tasks is a
  // measurement artifact — the "Number of Active Threads" series of Figures
  // 2/5/6/7 is a step function over wall-clock time, and coalescing keeps
  // exactly those steps while removing two clock reads, two gauge records
  // and one contended counter RMW per task. wait_idle() still can't return
  // while any worker is busy: the batched decrement lands only after the
  // gauge interval is closed.
  bool busy_open = false;
  std::int64_t completed = 0;
  const auto flush_idle = [&] {
    if (busy_open) {
      busy_open = false;
      gauge_.task_finished();
    }
    if (completed != 0) {
      const std::int64_t n = completed;
      completed = 0;
      if (inflight_.fetch_sub(n, std::memory_order_acq_rel) == n) {
        std::lock_guard lock(mu_);
        idle_cv_.notify_all();
      }
    }
  };
  const auto stop_searching = [&] {
    if (searching) {
      searching = false;
      searching_.fetch_sub(1, std::memory_order_seq_cst);
    }
  };
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) {
      flush_idle();
      return;
    }
    // Fast path: no pool-wide lock. A worker is runnable when its index is
    // below the current target; the lowest-indexed workers always win, so
    // shrink parks the newest ones.
    if (index < target_lp_.load(std::memory_order_acquire)) {
      Task task;
      TenantState* from_tenant = nullptr;
      if (try_get_task(index, task, from_tenant)) {
        // Chain the wake: a *woken* thief that found work rouses the next
        // sleeper if work remains (one at a time, not a thundering herd).
        // Ordinary local pops don't wake anyone — submits already did.
        const bool was_searching = searching;
        stop_searching();
        if (was_searching && queued_.load(std::memory_order_relaxed) > 0) {
          maybe_wake_one();
        }
        if (!busy_open) {
          busy_open = true;
          gauge_.task_started();
        }
        // Remote backends bracket the task with a transport lease (submit /
        // complete round trip + loss recovery); the thread backend pays one
        // relaxed load and nothing else — the PR 1 hot path is untouched.
        if (backend_remote_.load(std::memory_order_relaxed)) {
          WorkerBackend* backend = backend_.load(std::memory_order_acquire);
          const std::uint64_t lease = backend->task_begin(
              index, queued_.load(std::memory_order_relaxed));
          task();
          backend->task_end(index, lease);
        } else {
          task();
        }
        if (from_tenant != nullptr) {
          // Release: this is the worker's last touch of the tenant state; a
          // retire_tenant that acquires running == 0 afterwards may hand the
          // state to a new id knowing no late write can land.
          from_tenant->running.fetch_sub(1, std::memory_order_release);
        }
        ++completed;
        continue;
      }
    }
    // Slow path: park (surplus worker) or sleep until work arrives. The
    // searching token is released *before* the predicate re-reads queued_,
    // so a submit that skipped its wake because we were searching is always
    // seen here.
    stop_searching();
    flush_idle();
    std::unique_lock lock(mu_);
    if (index >= target_lp_.load(std::memory_order_relaxed)) {
      // Hand off before parking: we may have just released the searching
      // token (suppressing a submit's wake), or consumed a work_cv_ notify
      // meant for an in-range sleeper while our index fell out of range.
      // Either way, if work is queued, re-issue the wake so it reaches a
      // runnable worker. seq_cst pairs with submit's queued_++ / searching_
      // read: one side always sees the other.
      if (queued_.load(std::memory_order_seq_cst) > 0) work_cv_.notify_one();
      park_cv_.wait(lock, [&] {
        return stopping_.load(std::memory_order_relaxed) ||
               index < target_lp_.load(std::memory_order_relaxed);
      });
    } else {
      idle_sleepers_.fetch_add(1, std::memory_order_seq_cst);
      work_cv_.wait(lock, [&] {
        return stopping_.load(std::memory_order_relaxed) ||
               index >= target_lp_.load(std::memory_order_relaxed) ||
               queued_.load(std::memory_order_seq_cst) > 0;
      });
      idle_sleepers_.fetch_sub(1, std::memory_order_relaxed);
      // Claim the searching token only when runnable: a worker woken
      // because its index fell out of range is headed for park_cv_, and
      // holding the token there would suppress submits' wakes for work it
      // will never take.
      if (!stopping_.load(std::memory_order_relaxed) &&
          index < target_lp_.load(std::memory_order_relaxed)) {
        searching = true;
        searching_.fetch_add(1, std::memory_order_seq_cst);
      }
    }
    if (stopping_.load(std::memory_order_relaxed)) return;
  }
}

std::uint64_t ResizableThreadPool::tenant_submitted(int tenant) const {
  const TenantState* ts = find_tenant_state(tenant);
  return ts == nullptr ? 0 : ts->submitted.load(std::memory_order_relaxed);
}

int ResizableThreadPool::set_target_lp(int n) {
  int clamped = 0;
  int failed_target = 0;
  bool grew = false;
  bool applied = false;
  {
    std::lock_guard lock(mu_);
    clamped = request_target_locked(n, grew, applied);
    failed_target = std::exchange(sync_failed_target_, 0);
  }
  // Wake parked workers on growth; wake idle sleepers whenever a change
  // applied so workers whose index fell out of range re-park promptly. (A
  // pending backend join notifies from on_provision_result instead.)
  if (grew) park_cv_.notify_all();
  if (applied) work_cv_.notify_all();
  if (failed_target != 0) notify_provision_failure(failed_target);
  return clamped;
}

int ResizableThreadPool::request_target_locked(int n, bool& grew, bool& applied) {
  grew = false;
  applied = false;
  // Clamp under mu_, where set_lp_limit also writes: a target computed
  // against a stale cap can then never be installed after the cap shrank.
  const int clamped =
      std::clamp(n, 1, std::min(max_lp_, lp_limit_.load(std::memory_order_relaxed)));
  if (stopping_.load(std::memory_order_relaxed)) return clamped;
  if (clamped == requested_lp_.load(std::memory_order_relaxed) &&
      clamped == target_lp_.load(std::memory_order_relaxed)) {
    return clamped;
  }
  requested_lp_.store(clamped, std::memory_order_release);
  const int effective = target_lp_.load(std::memory_order_relaxed);
  if (clamped > effective) {
    // Growth is the backend's business: instant for in-process threads
    // (kReady — apply inline, the original behavior), a delayed join for the
    // simulated or real remote paths (kPending — on_provision_result
    // finishes the job with the stale-join guards), or a refusal.
    switch (backend_.load(std::memory_order_relaxed)->provision(effective,
                                                                clamped)) {
      case WorkerBackend::Provision::kReady:
        break;
      case WorkerBackend::Provision::kPending:
        return clamped;  // the backend notifies when the join lands
      case WorkerBackend::Provision::kFailed:
        // Abandon the request — target and requested agree again, so failed
        // growth never wedges the pool — and surface the failure (the
        // caller invokes the handler once mu_ is dropped).
        requested_lp_.store(effective, std::memory_order_release);
        provision_failures_.fetch_add(1, std::memory_order_acq_rel);
        sync_failed_target_ = clamped;
        return clamped;
    }
    grew = true;
  } else {
    // Re-target at or below the effective LP: parking is local and
    // immediate; remote backends retire surplus sessions best-effort. The
    // equal case matters too — it cancels a still-pending larger grow
    // (requested_lp_ moved back down), or the backend would keep chasing
    // and then retain workers nobody asked for.
    backend_.load(std::memory_order_relaxed)->release(effective, clamped);
  }
  apply_target_locked(clamped);
  applied = true;
  return clamped;
}

int ResizableThreadPool::apply_target_locked(int n) {
  target_lp_.store(n, std::memory_order_release);
  lp_history_.record(clock_->now(), n);
  const int want = n - static_cast<int>(workers_.size());
  if (want > 0) spawn_locked(want);
  return n;
}

int ResizableThreadPool::set_lp_limit(int n) {
  const int cap = std::clamp(n, 1, max_lp_);
  int failed_target = 0;
  bool grew = false;
  bool applied = false;
  {
    std::lock_guard lock(mu_);
    lp_limit_.store(cap, std::memory_order_release);
    if (stopping_.load(std::memory_order_relaxed)) return cap;
    // Re-issue the pending request at the cap, under the same mu_ hold that
    // published it (no window for a concurrent set_target_lp holding the
    // stale cap). Shrinks apply immediately (surplus workers park at their
    // next boundary); a provisioned grow that was pending above the cap is
    // re-targeted at the cap itself — the old join self-cancels against the
    // lowered requested_lp_, and request_target_locked provisions anew.
    if (requested_lp_.load(std::memory_order_relaxed) > cap) {
      request_target_locked(cap, grew, applied);
      failed_target = std::exchange(sync_failed_target_, 0);
    }
  }
  if (grew) park_cv_.notify_all();
  if (applied) work_cv_.notify_all();
  if (failed_target != 0) notify_provision_failure(failed_target);
  return cap;
}

int ResizableThreadPool::lp_limit() const {
  return lp_limit_.load(std::memory_order_acquire);
}

void ResizableThreadPool::set_provision_delay(Duration d) {
  backend_.load(std::memory_order_acquire)->set_provision_delay(std::max(0.0, d));
}

Duration ResizableThreadPool::provision_delay() const {
  return backend_.load(std::memory_order_acquire)->provision_delay();
}

int ResizableThreadPool::target_lp() const {
  return requested_lp_.load(std::memory_order_acquire);
}

int ResizableThreadPool::effective_lp() const {
  return target_lp_.load(std::memory_order_acquire);
}

int ResizableThreadPool::spawned_workers() const {
  std::lock_guard lock(mu_);
  return static_cast<int>(workers_.size());
}

std::size_t ResizableThreadPool::queued() const {
  return queued_.load(std::memory_order_acquire);
}

std::uint64_t ResizableThreadPool::steals() const {
  return steals_.load(std::memory_order_relaxed);
}

void ResizableThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [&] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

void ResizableThreadPool::spawn_locked(int count) {
  for (int k = 0; k < count && static_cast<int>(workers_.size()) < max_lp_; ++k) {
    const int index = static_cast<int>(workers_.size());
    workers_.emplace_back([this, index] { worker_loop(index); });
  }
}

}  // namespace askel
