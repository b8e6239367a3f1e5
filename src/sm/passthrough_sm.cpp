#include "sm/trackers.hpp"

namespace askel {

// ------------------------------------------------------------------- farm --

void FarmTracker::on_event(const Event& ev, EstimateRegistry&) {
  if (ev.where == Where::kSkeleton && ev.when == When::kAfter) mark_finished();
}

void FarmTracker::contribute(SnapshotCtx& c, std::span<const int> preds,
                             std::vector<int>& out) const {
  if (!children_.empty()) return children_[0]->contribute(c, preds, out);
  expand_expected(*node_->children()[0], c.est, c.g, preds, out, c.ids, c.limits,
                  depth_ + 1);
}

// --------------------------------------------------------------------- if --
//
// The paper's v1.1b1 does not support If ("produces a duplication of the
// whole ADG"); we track the chosen branch once the condition result is known
// and expand the true branch as the expectation before that.

void IfTracker::on_event(const Event& ev, EstimateRegistry& reg) {
  if (ev.where == Where::kCondition) {
    if (ev.when == When::kBefore) {
      open_rec(cond_, ev, node_->muscles()[0]->name().c_str());
    } else if (cond_ && !cond_->done()) {
      close_rec(*cond_, ev);
      observe_duration_of(reg, *cond_);
    }
  } else if (ev.where == Where::kSkeleton && ev.when == When::kAfter) {
    mark_finished();
  }
}

void IfTracker::contribute(SnapshotCtx& c, std::span<const int> preds,
                           std::vector<int>& out) const {
  if (!cond_) {
    return expand_expected(*node_, c.est, c.g, preds, out, c.ids, c.limits, depth_);
  }
  const int cond = add_record(c, *cond_, preds);
  if (!children_.empty()) return children_[0]->contribute(c, one(cond), out);
  const auto& n = static_cast<const IfNode&>(*node_);
  const SkelNode* branch = cond_->done()
                               ? (cond_->cond_result ? n.true_branch() : n.false_branch())
                               : n.true_branch();
  expand_expected(*branch, c.est, c.g, one(cond), out, c.ids, c.limits, depth_ + 1);
}

}  // namespace askel
