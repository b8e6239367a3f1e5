#pragma once
// Concrete per-skeleton state machines.
//
// SeqTracker implements Figure 3, MapTracker Figure 4; the others follow the
// same pattern for the remaining skeletons. Fork and If are tracked too —
// the paper's v1.1b1 leaves them unsupported ("under construction"); we track
// Fork like Map (branch-cycled children) and If by expanding the true branch
// until the condition result is known (documented deviation in DESIGN.md).

#include <algorithm>

#include "sm/tracker.hpp"

namespace askel {

/// seq(fe): I --@b--> running --@a--> F  (Figure 3).
class SeqTracker final : public Tracker {
 public:
  using Tracker::Tracker;
  void on_event(const Event& ev, EstimateRegistry& reg) override;
  void contribute(SnapshotCtx& c, std::span<const int> preds,
                  std::vector<int>& out) const override;

 private:
  std::optional<MuscleRec> fe_;
};

/// Shared machine for map and fork (Figure 4): I --@bs--> splitting --@as-->
/// S (children) --@bm--> M --@am--> F.
class MapLikeTracker : public Tracker {
 public:
  MapLikeTracker(const SkelNode* node, std::int64_t exec_id,
                 std::int64_t parent_exec_id);
  void on_event(const Event& ev, EstimateRegistry& reg) override;
  void contribute(SnapshotCtx& c, std::span<const int> preds,
                  std::vector<int>& out) const override;

 protected:
  /// Set `out` to the static nodes of the children not yet started when the
  /// split yields `card` elements, in element order.
  virtual void pending_child_nodes(long card,
                                   std::vector<const SkelNode*>& out) const = 0;

  // The node's lists, read once (SkelNode returns them by value).
  const std::vector<const SkelNode*> kids_;
  const SplitMuscle* const fs_;
  const MergeMuscle* const fm_;
  std::optional<MuscleRec> split_;
  std::optional<MuscleRec> merge_;

 private:
  mutable std::vector<const SkelNode*> pending_;  // contribute() scratch
};

class MapTracker final : public MapLikeTracker {
 public:
  using MapLikeTracker::MapLikeTracker;

 protected:
  void pending_child_nodes(long card,
                           std::vector<const SkelNode*>& out) const override {
    const long pending = std::max<long>(0, card - static_cast<long>(children_.size()));
    out.assign(static_cast<std::size_t>(pending), kids_[0]);
  }
};

class ForkTracker final : public MapLikeTracker {
 public:
  using MapLikeTracker::MapLikeTracker;

 protected:
  /// Element i runs branch i mod |{∆}|, but elements may start in any order
  /// (a worker's LIFO deque runs the last one first), so the pending ones
  /// are matched against the started children branch by branch.
  void pending_child_nodes(long card,
                           std::vector<const SkelNode*>& out) const override;

 private:
  mutable std::vector<long> started_;  // pending_child_nodes() scratch
};

/// pipe(∆1,∆2): stages run strictly in order.
class PipeTracker final : public Tracker {
 public:
  using Tracker::Tracker;
  void on_event(const Event& ev, EstimateRegistry& reg) override;
  void contribute(SnapshotCtx& c, std::span<const int> preds,
                  std::vector<int>& out) const override;
};

/// farm(∆): transparent wrapper around one child instance.
class FarmTracker final : public Tracker {
 public:
  using Tracker::Tracker;
  void on_event(const Event& ev, EstimateRegistry& reg) override;
  void contribute(SnapshotCtx& c, std::span<const int> preds,
                  std::vector<int>& out) const override;
};

/// if(fc,∆t,∆f): condition then the chosen branch.
class IfTracker final : public Tracker {
 public:
  using Tracker::Tracker;
  void on_event(const Event& ev, EstimateRegistry& reg) override;
  void contribute(SnapshotCtx& c, std::span<const int> preds,
                  std::vector<int>& out) const override;

 private:
  std::optional<MuscleRec> cond_;
};

/// while(fc,∆): alternating condition/body chain; |fc| = #true observed.
class WhileTracker final : public Tracker {
 public:
  using Tracker::Tracker;
  void on_event(const Event& ev, EstimateRegistry& reg) override;
  void contribute(SnapshotCtx& c, std::span<const int> preds,
                  std::vector<int>& out) const override;
  long true_count() const { return true_count_; }

 private:
  std::vector<MuscleRec> conds_;
  long true_count_ = 0;
};

/// for(n,∆): n body instances in sequence.
class ForTracker final : public Tracker {
 public:
  using Tracker::Tracker;
  void on_event(const Event& ev, EstimateRegistry& reg) override;
  void contribute(SnapshotCtx& c, std::span<const int> preds,
                  std::vector<int>& out) const override;
};

/// d&C(fc,fs,∆,fm): one tracker per recursion level; the root (level 0)
/// observes |fc| = max divide depth when it finishes.
class DacTracker final : public Tracker {
 public:
  using Tracker::Tracker;
  void on_event(const Event& ev, EstimateRegistry& reg) override;
  void contribute(SnapshotCtx& c, std::span<const int> preds,
                  std::vector<int>& out) const override;

  void set_level(long level) { level_ = level; }
  long level() const { return level_; }
  /// 0 when this instance did not divide; else 1 + max over children.
  long divide_depth() const;
  bool divided() const { return cond_ && cond_->done() && cond_->cond_result; }
  const DacNode& dac() const { return static_cast<const DacNode&>(*node_); }

 private:
  std::optional<MuscleRec> cond_;
  std::optional<MuscleRec> split_;
  std::optional<MuscleRec> merge_;
  long level_ = 0;
};

}  // namespace askel
