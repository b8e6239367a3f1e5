#include <algorithm>

#include "sm/trackers.hpp"

namespace askel {

// Figure 4: @bs stores sti; @as updates t(fs) and |fs|; children run their
// own machines; @bm stores mti; @am updates t(fm) and moves to F.

const SplitMuscle* MapLikeTracker::split_muscle() const {
  return static_cast<const SplitMuscle*>(node_->muscles()[0]);
}

const MergeMuscle* MapLikeTracker::merge_muscle() const {
  return static_cast<const MergeMuscle*>(node_->muscles()[1]);
}

void MapLikeTracker::on_event(const Event& ev, EstimateRegistry& reg) {
  switch (ev.where) {
    case Where::kSplit:
      if (ev.when == When::kBefore) {
        split_ = open_rec(ev, split_muscle()->name().c_str());
      } else if (split_ && !split_->done()) {
        close_rec(*split_, ev);
        observe_duration_of(reg, *split_);
        reg.observe_cardinality(split_->muscle_id, depth_,
                                static_cast<double>(split_->cardinality));
      }
      break;
    case Where::kMerge:
      if (ev.when == When::kBefore) {
        merge_ = open_rec(ev, merge_muscle()->name().c_str());
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

std::vector<int> MapLikeTracker::contribute(SnapshotCtx& c,
                                            std::vector<int> preds) const {
  if (!split_) {
    // Not even the split has started: the whole instance is expected-only.
    return expand_expected(*node_, c.est, c.g, preds, c.limits, depth_);
  }
  const int split_id = add_record(c, *split_, std::move(preds));

  std::vector<int> merge_preds;
  for (const TrackerPtr& child : children_) {
    std::vector<int> t = child->contribute(c, {split_id});
    merge_preds.insert(merge_preds.end(), t.begin(), t.end());
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
  for (const SkelNode* pending : pending_child_nodes(card)) {
    std::vector<int> t =
        expand_expected(*pending, c.est, c.g, {split_id}, c.limits, depth_ + 1);
    merge_preds.insert(merge_preds.end(), t.begin(), t.end());
  }
  if (merge_preds.empty()) merge_preds = {split_id};

  if (merge_) return {add_record(c, *merge_, std::move(merge_preds))};
  return {add_pending_muscle(c.g, c.est, *merge_muscle(), std::move(merge_preds),
                             depth_)};
}

std::vector<const SkelNode*> ForkTracker::pending_child_nodes(long card) const {
  const std::vector<const SkelNode*> kids = node_->children();
  auto slot = [&kids](const SkelNode* n) {
    return static_cast<std::size_t>(std::find(kids.begin(), kids.end(), n) -
                                    kids.begin());
  };
  // Started children per branch slot (a child's node is always a branch).
  std::vector<long> started(kids.size(), 0);
  for (const TrackerPtr& child : children_) ++started[slot(child->node())];
  std::vector<const SkelNode*> out;
  for (long i = 0; i < card; ++i) {
    const SkelNode* branch = kids[static_cast<std::size_t>(i) % kids.size()];
    long& unmatched = started[slot(branch)];
    if (unmatched > 0) {
      --unmatched;
    } else {
      out.push_back(branch);
    }
  }
  return out;
}

}  // namespace askel
