#pragma once
// Per-instance state machines ("trackers") driven by skeleton events.
//
// The paper (§4, Figures 3 and 4) attaches a state machine to every dynamic
// skeleton instance; the machine (i) updates the t(m) / |m| estimates on
// After events and (ii) knows enough about the instance's progress to emit
// its slice of the Activity Dependency Graph: done muscle executions with
// actual times, the currently running muscle, and the expected remainder.
//
// One tracker exists per dynamic instance (per exec_id); TrackerSet routes
// events, maintains the parent/child tree, and assembles whole-run snapshots.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "adg/expand.hpp"
#include "adg/snapshot.hpp"
#include "adg/timeline.hpp"
#include "est/registry.hpp"
#include "events/event.hpp"
#include "skel/nodes.hpp"

namespace askel {

/// Record of one muscle execution observed via its Before/After events.
struct MuscleRec {
  int muscle_id = -1;
  std::string label;
  TimePoint start = 0.0;
  std::optional<TimePoint> end;
  bool cond_result = false;
  int cardinality = -1;
  /// History generation this record was added to once done (0 = none); see
  /// TrackerSet's frontier snapshots.
  mutable std::uint64_t history_gen = 0;

  bool done() const { return end.has_value(); }
};

class Tracker;
using TrackerPtr = std::shared_ptr<Tracker>;

/// Context handed to Tracker::contribute when building a snapshot.
struct SnapshotCtx {
  AdgSnapshot& g;
  const Estimates& est;
  ExpandLimits limits;
  IdBuffers& ids;
  /// Frontier form: the run's concurrency history, which receives each done
  /// record once (null in the full form), and its current generation.
  ConcurrencyHistory* history = nullptr;
  std::uint64_t history_gen = 0;
};

class Tracker {
 public:
  Tracker(const SkelNode* node, std::int64_t exec_id, std::int64_t parent_exec_id);
  virtual ~Tracker() = default;

  const SkelNode* node() const { return node_; }
  std::int64_t exec_id() const { return exec_id_; }
  std::int64_t parent_exec_id() const { return parent_exec_id_; }
  bool finished() const { return finished_; }
  const std::vector<TrackerPtr>& children() const { return children_; }

  /// Dynamic nesting depth (0 = root instance); set by TrackerSet at attach.
  /// Feeds per-depth estimation (EstimationScope::kPerDepth).
  int depth() const { return depth_; }

  /// Handle an event with ev.exec_id == exec_id(). Updates internal state
  /// and folds actuals into `reg`.
  virtual void on_event(const Event& ev, EstimateRegistry& reg) = 0;

  /// A nested instance sent its first event; attach it in arrival order
  /// (sets its depth).
  void attach_child(TrackerPtr child);

  /// Emit this instance's activities. `preds` are the snapshot ids the
  /// instance waits on; appends to `out` the terminal activity ids its result
  /// depends on. In the frontier form, done records fold away (kFolded in
  /// the id lists).
  virtual void contribute(SnapshotCtx& c, std::span<const int> preds,
                          std::vector<int>& out) const = 0;

  /// True once (then false) after an event replaced a record that a
  /// frontier snapshot had already added to the concurrency history.
  bool take_replaced_history() { return std::exchange(replaced_history_, false); }

 protected:
  void mark_finished() { finished_ = true; }

  /// Emit one activity for a muscle record (done or running) and return its
  /// id; running durations use the per-depth estimate of this instance's
  /// depth. In the frontier form a done record folds away: kFolded.
  int add_record(SnapshotCtx& c, const MuscleRec& rec,
                 std::span<const int> preds) const;

  /// Fold a closed record's duration into the registry at this depth.
  void observe_duration_of(EstimateRegistry& reg, const MuscleRec& rec) const;

  /// Open a record in `slot` (replacing any earlier one).
  void open_rec(std::optional<MuscleRec>& slot, const Event& ev, const char* label);
  static MuscleRec open_rec(const Event& ev, const char* fallback_label);
  static void close_rec(MuscleRec& rec, const Event& ev);

  /// `id` as a one-element id list.
  static std::span<const int> one(const int& id) { return {&id, 1}; }

  const SkelNode* node_;
  std::int64_t exec_id_;
  std::int64_t parent_exec_id_;
  int depth_ = 0;
  bool finished_ = false;
  std::vector<TrackerPtr> children_;

 private:
  bool replaced_history_ = false;
};

/// Create the tracker matching `node->kind()`.
TrackerPtr make_tracker(const SkelNode* node, const Event& first_event);

}  // namespace askel
