#pragma once
// TrackerSet: routes events to per-instance trackers, maintains the dynamic
// nesting tree, and assembles whole-run AdgSnapshots on demand.
//
// Register it on the engine's EventBus (as_listener()); it then mirrors every
// execution it observes. One TrackerSet normally tracks one run at a time;
// `snapshot` works on the most recently started root instance. When a new
// root starts, the trackers of every finished root are retired, so a set
// serving an endless series of runs retains about one run's instances.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "events/event_bus.hpp"
#include "sm/trackers.hpp"

namespace askel {

/// The two counters a snapshot's completeness depends on: the registry's
/// coverage version and the tracker set's resolution epoch. While both are
/// unchanged since a snapshot that lacked an estimate (and was not
/// truncated), a fresh snapshot would lack one too.
struct ResolutionStamp {
  std::uint64_t coverage = 0;
  std::uint64_t epoch = 0;
  bool operator==(const ResolutionStamp&) const = default;
};

class TrackerSet {
 public:
  explicit TrackerSet(EstimateRegistry& reg);

  /// Feed one event (thread-safe; normally called via the bus listener).
  void on_event(const Event& ev);

  /// Listener adapter for EventBus registration.
  EventBus::ListenerPtr as_listener();

  /// Build the full ADG of the current root at observation time `now`,
  /// raised to the latest observed end or start if an event stamped after
  /// `now` was already ingested. Returns an empty snapshot if no execution
  /// has been observed.
  AdgSnapshot snapshot(TimePoint now) const;
  /// Same, in the requested form, into `out` (whose storage is reused). The
  /// frontier form walks the same trackers but folds done records away, so
  /// what it hands on follows the running and pending activities; it carries
  /// the done past as `done_end` and `past_peak` (see adg/snapshot.hpp).
  void snapshot(TimePoint now, SnapshotForm form, AdgSnapshot& out) const;

  /// Root tracker of the most recently started execution (null if none).
  TrackerPtr current_root() const;
  bool root_finished() const;
  std::size_t tracked_instances() const;

  /// The registry's coverage version and this set's resolution epoch, read
  /// lock-free. The epoch moves when a new root starts, on reset(), and on
  /// every event that can change which estimates a snapshot needs without
  /// making a new one available: the After of a split, condition or merge
  /// (a cardinality becomes known, a branch is chosen, a fan-in closes), a
  /// While finishing (its expected tail goes) and a root d&C observing |fc|.
  /// Read the stamp BEFORE building the snapshot it describes: an event
  /// ingested in between can then only make the stamp look stale.
  ResolutionStamp resolution_stamp() const;

  /// Forget all trackers (estimates in the registry are kept).
  void reset();

  /// Expansion guard applied when building snapshots.
  ExpandLimits limits;

 private:
  /// Drop the trackers of every finished root (caller holds mu_).
  void retire_finished_roots_locked();
  void bump_epoch_locked() { epoch_.fetch_add(1, std::memory_order_release); }
  /// Start a new concurrency history: every record of the old generation is
  /// forgotten at once (caller holds mu_).
  void restart_history_locked();

  mutable std::mutex mu_;
  EstimateRegistry& reg_;
  std::atomic<std::uint64_t> epoch_{0};  // written under mu_
  EventBus::ListenerPtr listener_;  // lazily-built shared bus adapter
  std::unordered_map<std::int64_t, TrackerPtr> by_exec_;
  std::vector<TrackerPtr> roots_;
  // Snapshot-building state, reused across snapshots under mu_. The history
  // belongs to the newest root and restarts with each new root.
  mutable Estimates est_;
  mutable IdBuffers ids_;
  mutable ConcurrencyHistory history_;
  std::uint64_t history_gen_ = 1;
  mutable std::vector<TimePoint> running_starts_;
};

}  // namespace askel
