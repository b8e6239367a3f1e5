#pragma once
// Resizable work-stealing worker pool: the "Level of Parallelism" (LP)
// actuator.
//
// Skandium's autonomic layer adjusts the number of threads allocated to a
// skeleton while it runs. This pool supports that: `set_target_lp(n)` takes
// effect immediately for idle workers and at the next task boundary for busy
// ones (a running muscle is never interrupted — same semantics as the Java
// original, where a thread is only parked between tasks).
//
// Scheduling structure (contention-free hot path):
//  * every worker owns a LIFO deque (`WorkDeque`); tasks submitted from
//    inside a task go to the submitting worker's own deque, so in steady
//    state submit/pop touch one uncontended lock and the pool-wide mutex is
//    never taken;
//  * tasks submitted from outside the pool land in the injection queue, one
//    more `WorkDeque` that no worker owns; a dry worker moves all of it into
//    its own deque and pops the newest;
//  * tenant-tagged tasks (multi-tenant mode) land in per-tenant run queues
//    and are dispatched by a grant-weighted policy (see "Tenant-aware
//    dispatch" below), turning the coordinator's LP grants into actual
//    scheduling isolation;
//  * a worker that runs dry takes from the injection queue, then the tenant
//    queues, then steals the oldest task from a sibling's deque (parked
//    siblings included, so no work ever strands on a parked worker);
//  * the pool-wide mutex `mu_` is control-plane only: LP changes, parking,
//    sleeping and shutdown.
//
// Tenant-aware dispatch (grant vector -> steal weights):
//  * the LP-budget coordinator installs its grant vector via
//    `set_tenant_grant`; each tenant's queue carries two relaxed gauges,
//    `queued` (tasks waiting) and `running` (workers executing that tenant
//    right now);
//  * a worker picking its next tenant queue scores every non-empty queue:
//    tenants *below* their grant score `1 + (grant - running)` (most-starved
//    first, so a tenant holding G threads of grant converges to ~G threads
//    of service), tenants *at or above* their grant score
//    `1 / (2 + running - grant)` — always < 1, so deficit tenants strictly
//    outrank surplus ones, while idle capacity still falls through to any
//    ready tenant (work conservation; a zero-grant tenant is never starved
//    forever, merely deprioritized);
//  * the weights are advisory reads of relaxed atomics: a reclaimed grant
//    may be observed one dispatch late, bounding a victim's overshoot to
//    one task per worker, never accumulating.
//
// Worker backends (PR 5): the pool schedules; the attached WorkerBackend
// (worker_backend.hpp) owns where the capacity behind the workers comes
// from. Growth routes through backend.provision() — instant for in-process
// threads, asynchronous (and fallible) for remote workers — and remote
// backends bracket every executed task with a transport lease. The default
// ThreadBackend reproduces the pre-seam behavior byte-identically.
//
// Invariants:
//  * at most `target_lp()` workers execute tasks concurrently;
//  * workers are spawned lazily, up to `max_lp`, and parked (not destroyed)
//    when the target shrinks, so growing again is cheap;
//  * tasks submitted from within tasks are allowed (the skeleton engine is
//    continuation-passing and never blocks a worker on a future, so a pool
//    with LP=1 still makes progress on arbitrarily nested skeletons).

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/lp_gauge.hpp"
#include "runtime/task.hpp"
#include "runtime/work_queue.hpp"
#include "util/clock.hpp"

namespace askel {

class WorkerBackend;
class ThreadBackend;

/// Where tenant-tagged submits go. kWeighted (default) routes them to
/// per-tenant run queues served by the grant-weighted pick; kFifo routes
/// them exactly like untagged tasks (PR 2 behavior: accounting only, no
/// isolation) — the A/B baseline for bench/multi_tenant. Switching modes
/// never strands work: queues filled under kWeighted are drained regardless
/// of the current mode.
enum class TenantDispatch : int { kFifo = 0, kWeighted = 1 };

/// Per-tenant run-queue service order. kLifo (default) pops the newest task
/// first — depth-first for nested skeletons, the original behavior. kFifo
/// serves the oldest first — fair-arrival order for tenants whose tasks are
/// independent requests rather than a task tree.
enum class TenantOrdering : int { kLifo = 0, kFifo = 1 };

class ResizableThreadPool {
 public:
  /// Creates the pool with `initial_lp` runnable workers; `max_lp` bounds how
  /// far the autonomic layer may ever grow it (the paper's "maximum LP" that
  /// avoids overloading the system).
  ResizableThreadPool(int initial_lp, int max_lp,
                      const Clock* clock = &default_clock());
  ~ResizableThreadPool();

  ResizableThreadPool(const ResizableThreadPool&) = delete;
  ResizableThreadPool& operator=(const ResizableThreadPool&) = delete;

  /// Enqueue a task. From a worker thread of this pool the task goes to that
  /// worker's own LIFO deque (depth-first for nested skeletons, no global
  /// lock); from any other thread it goes to the injection queue.
  void submit(Task task);

  /// Tenant-tagged submit: the task goes to `tenant`'s run queue (kWeighted
  /// mode) where the grant-weighted dispatch serves it, plus per-tenant
  /// accounting. Tenant ids are positive integers handed out by the
  /// LP-budget coordinator; each live id owns one of kTenantSlots direct
  /// accounting slots, claimed by CAS — two ids hashing to the same slot no
  /// longer merge silently, the loser falls back to an exact (mutex-guarded)
  /// side map. Untagged submits (tenant <= 0 — the default overload, and
  /// every run without multi-tenant wiring) skip all of this: the
  /// single-tenant hot path PR 1 decontended pays one predictable branch.
  void submit(Task task, int tenant);

  /// Tasks ever submitted under exactly `tenant` (0 for ids <= 0, which are
  /// never counted). Exact even when ids collide on an accounting slot.
  std::uint64_t tenant_submitted(int tenant) const;

  /// Install one entry of the coordinator's grant vector (the tenant's
  /// current LP grant, >= 0). Relaxedly read by the dispatch weights; a
  /// worker mid-pick may use a grant one update stale, which bounds any
  /// tenant's overshoot to one task per worker.
  void set_tenant_grant(int tenant, int grant);
  /// Install many grant-vector entries in one call. Direct-slot hits store
  /// lock-free exactly like set_tenant_grant; every side-map miss is
  /// resolved under ONE overflow_mu_ acquisition instead of one per tenant.
  /// This is the coordinator's arbitration path: a grouped arbitration at
  /// scale re-grants thousands of side-map tenants per pass, and the batch
  /// keeps that one lock round trip.
  void set_tenant_grants(const std::vector<std::pair<int, int>>& grants);
  int tenant_grant(int tenant) const;
  /// Tasks waiting in `tenant`'s run queue right now.
  int tenant_queued(int tenant) const;
  /// Workers executing `tenant`'s tasks right now.
  int tenant_running(int tenant) const;

  /// Select where tenant-tagged submits are routed (default kWeighted).
  void set_tenant_dispatch(TenantDispatch mode);
  TenantDispatch tenant_dispatch() const;

  /// Per-tenant service order of the tenant's run queue (default kLifo).
  /// Takes effect on the next dispatch pick; tasks already queued are served
  /// under the new order. Reset to kLifo when the tenant is retired.
  void set_tenant_ordering(int tenant, TenantOrdering ordering);
  TenantOrdering tenant_ordering(int tenant) const;

  /// Retire a long-dead tenant id: drop its accounting/dispatch state so the
  /// exact side map stays O(peak live tenants) instead of O(distinct ids
  /// ever). Succeeds only when the tenant's per-tenant gauges show no queued
  /// task and no task running (returns false otherwise — call again once the
  /// tenant drained). Under kFifo dispatch tagged tasks bypass the tenant
  /// queues and are NOT tracked by those gauges, so there the caller must
  /// itself ensure the tenant's work completed (the coordinator unregisters
  /// only after a run's future resolved, which satisfies this).
  /// The caller guarantees the id is dead: no further submits, grants or
  /// stat queries under it (the LP-budget coordinator calls this from
  /// unregister_tenant, whose contract already forbids touching the id
  /// afterwards). A retired direct slot becomes claimable by the next id
  /// hashing to it; a retired side-map state moves to an internal free pool
  /// for reuse — never deallocated mid-run, so a worker still holding a
  /// stale pointer from a racing dispatch scan stays safe.
  bool retire_tenant(int tenant);
  /// Live entries in the exact accounting side map (monitoring/tests).
  std::size_t tenant_overflow_size() const;

  /// Change the level of parallelism. Clamped to [1, min(max_lp, lp_limit)].
  /// Growing spawns or unparks workers; shrinking parks surplus workers at
  /// their next task boundary. Returns the clamped value actually applied
  /// (for a delayed grow, the value that will eventually apply).
  int set_target_lp(int n);

  /// Pool-wide LP budget cap, owned by the LP-budget coordinator when one is
  /// attached. Every set_target_lp is clamped against it, so the cap holds
  /// regardless of who requests growth. Clamped to [1, max_lp]; shrinking the
  /// cap below the current target shrinks the target too. Returns the applied
  /// cap.
  int set_lp_limit(int n);
  int lp_limit() const;

  /// Attach a worker backend — "where LP lives" (see worker_backend.hpp).
  /// nullptr restores the built-in ThreadBackend. Call before arming
  /// controllers / submitting work: workers read the backend pointer with no
  /// lock on their task path. The backend must outlive the pool (the pool
  /// cancels its pending provisions on destruction). Growth requested while
  /// the previous backend was attached resolves under the old backend's
  /// callbacks; quiesce first.
  void set_backend(WorkerBackend* backend);
  WorkerBackend* backend() const;

  /// Provisions that failed (backend refused or could not join workers).
  /// Each failure also abandoned its pending request: target_lp() falls back
  /// to effective_lp(), so failed growth never wedges the pool. The
  /// controller diffs this counter to surface DecisionReason::kProvisionFailed.
  std::uint64_t provision_failures() const;

  /// Invoked (on a backend or caller thread, with no pool lock held) after a
  /// provision failure: `failed_target` is the LP that could not be reached,
  /// `effective` the LP actually running. The LP-budget coordinator installs
  /// a handler to claw the unprovisionable LP back into its budget.
  using ProvisionFailureHandler =
      std::function<void(int failed_target, int effective)>;
  void set_provision_failure_handler(ProvisionFailureHandler handler);

  /// Simulated worker-provisioning delay (paper §6 future work: a
  /// distributed backend adds workers "like adding threads", but a remote
  /// worker takes time to join). With a non-zero delay, LP increases take
  /// effect only after `d` seconds; decreases stay immediate (parking is
  /// local). 0 (default) restores plain multicore semantics. Forwarded to
  /// the attached backend; real remote backends ignore it (their join
  /// latency is measured, not configured).
  void set_provision_delay(Duration d);
  Duration provision_delay() const;

  /// Requested LP: what the last set_target_lp asked for. This is what the
  /// controller reasons against (its own pending requests included).
  int target_lp() const;
  /// Effective LP: how many workers are runnable right now. Equal to
  /// target_lp() except during a provisioning window.
  int effective_lp() const;
  int max_lp() const { return max_lp_; }
  /// Number of OS threads created so far (parked workers included).
  int spawned_workers() const;
  /// Tasks waiting in any queue (injection, tenant run queues and all worker
  /// deques) right now.
  std::size_t queued() const;
  /// Number of successful cross-worker steals since construction. A load
  /// observability stat: steals measure how often workers ran dry and
  /// migrated work, i.e. how unbalanced the task tree was.
  std::uint64_t steals() const;

  /// Busy-worker gauge; feeds the Figures 5-7 "active threads" series.
  LpGauge& gauge() { return gauge_; }
  const LpGauge& gauge() const { return gauge_; }

  /// Record of every LP target change: (time, new target). Useful in tests
  /// and to overlay controller decisions on the thread-activity plots.
  const TimeSeries& lp_history() const { return lp_history_; }

  /// Block until every queue is empty and no worker is busy. Intended for
  /// tests and examples; the skeleton engine uses per-execution futures.
  void wait_idle();

 private:
  /// One tenant's scheduling state: run queue + accounting + dispatch
  /// gauges. Lives either in a direct slot of `tenant_slots_` (claimed by
  /// CAS on `id`) or, on slot collision, in the exact side map. One cache
  /// line per slot: concurrent tenants must not false-share on submit.
  struct alignas(64) TenantState {
    std::atomic<int> id{0};       // owning tenant id; 0 = slot unclaimed
    std::atomic<int> grant{0};    // coordinator grant vector entry
    std::atomic<int> running{0};  // workers executing this tenant now
    std::atomic<int> queued{0};   // tasks in `tasks` (advisory, for scans)
    std::atomic<int> ordering{0}; // TenantOrdering (kLifo default)
    std::atomic<std::uint64_t> submitted{0};
    std::mutex mu;                // guards `tasks` only
    std::deque<Task> tasks;       // run queue (newest popped first by default)
  };

  void worker_loop(int index);
  void spawn_locked(int count);
  /// Locked core of set_target_lp/set_lp_limit: clamps against max_lp and
  /// lp_limit, installs the request, and either applies it (`applied`, with
  /// `grew` saying parked workers need waking) or registers a provision
  /// timer for a delayed grow. Returns the clamped value.
  int request_target_locked(int n, bool& grew, bool& applied);
  int apply_target_locked(int n);
  /// `from_tenant` is set when the task came from a tenant run queue (its
  /// `running` gauge was incremented and must be decremented after the
  /// task); null for every other source.
  bool try_get_task(int index, Task& out, TenantState*& from_tenant);
  /// Grant-weighted pick over non-empty tenant queues (see file header);
  /// `rot` rotates the scan start so ties round-robin across workers.
  TenantState* pick_tenant_queue(unsigned rot) const;
  /// The state owning exactly `tenant`, or nullptr. Never creates.
  TenantState* find_tenant_state(int tenant) const;
  /// The state owning exactly `tenant`, created (slot CAS-claim, else exact
  /// side map) if missing.
  TenantState& get_tenant_state(int tenant);
  /// Miss-path core of get_tenant_state: requires overflow_mu_ held, so a
  /// batch caller (set_tenant_grants) resolves many misses under one
  /// acquisition.
  TenantState& resolve_tenant_state_locked(int tenant);
  void maybe_wake_one();
  /// Backend provision-outcome sink (bound at attach): applies joined
  /// targets with the same stale-join guards the PR 1 timer used, or
  /// abandons failed requests and surfaces the failure.
  void on_provision_result(int target, bool ok);
  void notify_provision_failure(int failed_target);

  const Clock* clock_;
  const int max_lp_;
  LpGauge gauge_;
  TimeSeries lp_history_;

  // ---- data plane: per-worker deques + injection queue, no global mutex ----
  std::vector<std::unique_ptr<WorkDeque>> deques_;  // max_lp_ slots, fixed
  // External submits push here under the deque's own lock; a dry worker
  // takes all of it (take_all) into its own deque, where siblings can steal.
  WorkDeque injected_;
  std::atomic<std::size_t> queued_{0};     // tasks waiting in any queue
  std::atomic<std::int64_t> inflight_{0};  // queued + currently running
  std::atomic<int> idle_sleepers_{0};      // runnable workers asleep on work_cv_
  std::atomic<int> searching_{0};          // thieves between wake-up and find
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<int> requested_lp_{1};
  std::atomic<int> target_lp_{1};  // effective: what the worker predicate enforces
  std::atomic<int> lp_limit_;      // budget cap; initialized to max_lp_
  std::atomic<bool> stopping_{false};

  // ---- tenant plane: per-tenant run queues + grant-weighted dispatch ------
  // Direct slots for the common case (<= kTenantSlots live ids, no
  // collision): submit-side lookup is one relaxed load. Colliding or
  // overflowing ids live in the exact side map behind `overflow_mu_`;
  // `overflow_states_` lets the dispatch scan skip the map (and its lock)
  // entirely while it is empty. `tenant_tasks_` is the sum of all tenant
  // `queued` gauges: the untagged dispatch path pays a single relaxed load
  // to skip the whole tenant plane when no tagged work exists.
  static constexpr int kTenantSlots = 64;
  mutable std::array<TenantState, kTenantSlots> tenant_slots_{};
  mutable std::mutex overflow_mu_;
  mutable std::unordered_map<int, std::unique_ptr<TenantState>> overflow_;
  // States of retired side-map tenants, kept for reuse by later overflow
  // ids (bounds the map at O(peak live overflow tenants) while keeping
  // stale TenantState pointers — a worker between dispatch scan and queue
  // lock — valid for the pool's whole lifetime).
  std::vector<std::unique_ptr<TenantState>> retired_states_;
  std::atomic<int> overflow_states_{0};
  // Highest claimed slot index + 1 (a monotonic max: retiring a slot clears
  // its id but never lowers the mark, so the dispatch scan may visit a few
  // empty slots after churn but never misses a claimed one): the pick scans
  // only [0, hwm) instead of all 64 cache-line-aligned slots.
  std::atomic<int> tenant_slot_hwm_{0};
  std::atomic<int> tenant_tasks_{0};
  std::atomic<int> tenant_dispatch_{static_cast<int>(TenantDispatch::kWeighted)};

  // ---- backend plane: where worker capacity comes from ---------------------
  // The default is the built-in ThreadBackend (instant in-process workers;
  // provision delay simulated). `backend_remote_` gates the per-task
  // transport bracket in one relaxed load, so the thread-backend hot path
  // is exactly the PR 1 loop. `sync_failed_target_` carries a synchronous
  // provision failure from request_target_locked (under mu_) to the caller,
  // which invokes the failure handler after dropping mu_ (the handler takes
  // the coordinator's mutex, which sits ABOVE the pool's in the lock order).
  std::unique_ptr<ThreadBackend> default_backend_;
  std::atomic<WorkerBackend*> backend_{nullptr};
  std::atomic<bool> backend_remote_{false};
  std::atomic<std::uint64_t> provision_failures_{0};
  int sync_failed_target_ = 0;  // under mu_
  std::mutex handler_mu_;       // leaf: guards the failure handler slot
  std::condition_variable handler_cv_;  // uninstall waits out invocations
  int handler_inflight_ = 0;            // under handler_mu_
  ProvisionFailureHandler provision_failure_handler_;

  // ---- control plane: LP changes, parking, sleeping, shutdown --------------
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // runnable workers wait for tasks here
  std::condition_variable park_cv_;  // surplus workers wait for LP growth here
  std::condition_variable idle_cv_;  // wait_idle()
  std::vector<std::thread> workers_;
};

}  // namespace askel
