#include <algorithm>

#include "sm/trackers.hpp"

namespace askel {

// Figure 4: @bs stores sti; @as updates t(fs) and |fs|; children run their
// own machines; @bm stores mti; @am updates t(fm) and moves to F.

MapLikeTracker::MapLikeTracker(const SkelNode* node, std::int64_t exec_id,
                               std::int64_t parent_exec_id)
    : Tracker(node, exec_id, parent_exec_id),
      kids_(node->children()),
      fs_(static_cast<const SplitMuscle*>(node->muscles()[0])),
      fm_(static_cast<const MergeMuscle*>(node->muscles()[1])) {}

void MapLikeTracker::on_event(const Event& ev, EstimateRegistry& reg) {
  switch (ev.where) {
    case Where::kSplit:
      if (ev.when == When::kBefore) {
        open_rec(split_, ev, fs_->name().c_str());
      } else if (split_ && !split_->done()) {
        close_rec(*split_, ev);
        observe_duration_of(reg, *split_);
        reg.observe_cardinality(split_->muscle_id, depth_,
                                static_cast<double>(split_->cardinality));
      }
      break;
    case Where::kMerge:
      if (ev.when == When::kBefore) {
        open_rec(merge_, ev, fm_->name().c_str());
      } else if (merge_ && !merge_->done()) {
        close_rec(*merge_, ev);
        observe_duration_of(reg, *merge_);
      }
      break;
    case Where::kSkeleton:
      if (ev.when == When::kAfter) mark_finished();
      break;
    default:
      break;
  }
}

void MapLikeTracker::contribute(SnapshotCtx& c, std::span<const int> preds,
                                std::vector<int>& out) const {
  if (!split_) {
    // Not even the split has started: the whole instance is expected-only.
    return expand_expected(*node_, c.est, c.g, preds, out, c.ids, c.limits, depth_);
  }
  const int split_id = add_record(c, *split_, preds);

  const IdBuffers::Lease merge_preds = c.ids.take();
  for (const TrackerPtr& child : children_) {
    child->contribute(c, one(split_id), *merge_preds);
  }

  long card;
  if (split_->done()) {
    card = split_->cardinality;
  } else {
    bool known = false;
    card = rounded_cardinality(c.est, split_->muscle_id,
                               static_cast<long>(children_.size()), &known, depth_);
    if (!known) c.g.complete_estimates = false;
  }
  pending_child_nodes(card, pending_);
  for (const SkelNode* pending : pending_) {
    expand_expected(*pending, c.est, c.g, one(split_id), *merge_preds, c.ids, c.limits,
                    depth_ + 1);
  }
  // The merge waits on the split alone when no branch left a terminal.
  if (merge_preds->empty()) merge_preds->push_back(split_id);
  out.push_back(merge_ ? add_record(c, *merge_, *merge_preds)
                       : add_pending_muscle(c.g, c.est, *fm_, *merge_preds, depth_));
}

void ForkTracker::pending_child_nodes(long card,
                                      std::vector<const SkelNode*>& out) const {
  auto slot = [this](const SkelNode* n) {
    return static_cast<std::size_t>(std::find(kids_.begin(), kids_.end(), n) -
                                    kids_.begin());
  };
  // Started children per branch slot (a child's node is always a branch).
  started_.assign(kids_.size(), 0);
  for (const TrackerPtr& child : children_) ++started_[slot(child->node())];
  out.clear();
  for (long i = 0; i < card; ++i) {
    const SkelNode* branch = kids_[static_cast<std::size_t>(i) % kids_.size()];
    long& unmatched = started_[slot(branch)];
    if (unmatched > 0) {
      --unmatched;
    } else {
      out.push_back(branch);
    }
  }
}

}  // namespace askel
