#include <algorithm>

#include "sm/trackers.hpp"

namespace askel {

// |fc| for d&C = estimated depth of the recursion tree (paper §4). Each
// dynamic instance is one recursion level; TrackerSet wires `level_` when a
// DaC child of the same static node attaches, and the level-0 instance
// observes divide_depth() into the registry on completion.

void DacTracker::on_event(const Event& ev, EstimateRegistry& reg) {
  switch (ev.where) {
    case Where::kCondition:
      if (ev.when == When::kBefore) {
        open_rec(cond_, ev, dac().fc().name().c_str());
      } else if (cond_ && !cond_->done()) {
        close_rec(*cond_, ev);
        observe_duration_of(reg, *cond_);
      }
      break;
    case Where::kSplit:
      if (ev.when == When::kBefore) {
        open_rec(split_, ev, dac().fs().name().c_str());
      } else if (split_ && !split_->done()) {
        close_rec(*split_, ev);
        observe_duration_of(reg, *split_);
        reg.observe_cardinality(split_->muscle_id, depth_,
                                static_cast<double>(split_->cardinality));
      }
      break;
    case Where::kMerge:
      if (ev.when == When::kBefore) {
        open_rec(merge_, ev, dac().fm().name().c_str());
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

long DacTracker::divide_depth() const {
  if (!divided()) return 0;
  long deepest = 0;
  for (const TrackerPtr& child : children_) {
    if (const auto* d = dynamic_cast<const DacTracker*>(child.get())) {
      deepest = std::max(deepest, d->divide_depth());
    }
  }
  return 1 + deepest;
}

void DacTracker::contribute(SnapshotCtx& c, std::span<const int> preds,
                            std::vector<int>& out) const {
  if (!cond_) {
    return expand_expected_dac(dac(), c.est, c.g, preds, out, c.ids, level_, c.limits,
                               depth_);
  }
  const int cond_id = add_record(c, *cond_, preds);

  if (!cond_->done()) {
    // Condition still running: assume the estimated-depth decision.
    bool known = false;
    const long rec_depth =
        rounded_cardinality(c.est, dac().fc().id(), 0, &known, depth_);
    if (!known) c.g.complete_estimates = false;
    return expand_dac_body(dac(), c.est, c.g, one(cond_id), out, c.ids, level_,
                           level_ < rec_depth, c.limits, depth_);
  }

  if (!divided()) {
    // Leaf: the nested ∆ handles this element.
    if (!children_.empty()) return children_[0]->contribute(c, one(cond_id), out);
    return expand_expected(*node_->children()[0], c.est, c.g, one(cond_id), out, c.ids,
                           c.limits, depth_ + 1);
  }

  if (!split_) {
    // Divide decided but split not yet started (sub-microsecond window).
    return expand_dac_body(dac(), c.est, c.g, one(cond_id), out, c.ids, level_, true,
                           c.limits, depth_);
  }
  const int split_id = add_record(c, *split_, one(cond_id));

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
  const long pending = std::max<long>(0, card - static_cast<long>(children_.size()));
  for (long k = 0; k < pending; ++k) {
    expand_expected_dac(dac(), c.est, c.g, one(split_id), *merge_preds, c.ids,
                        level_ + 1, c.limits, depth_ + 1);
  }
  if (merge_preds->empty()) merge_preds->push_back(split_id);
  out.push_back(merge_ ? add_record(c, *merge_, *merge_preds)
                       : add_pending_muscle(c.g, c.est, dac().fm(), *merge_preds,
                                            depth_));
}

}  // namespace askel
