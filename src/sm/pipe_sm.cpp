#include <algorithm>

#include "sm/trackers.hpp"

namespace askel {

void PipeTracker::on_event(const Event& ev, EstimateRegistry&) {
  if (ev.where == Where::kSkeleton && ev.when == When::kAfter) mark_finished();
}

void PipeTracker::contribute(SnapshotCtx& c, std::span<const int> preds,
                             std::vector<int>& out) const {
  const auto stages = node_->children();
  // Stages run strictly in order, so attached children are stage 0..k-1.
  IdChain cur(c.ids, preds);
  const std::size_t steps = std::max(children_.size(), stages.size());
  for (std::size_t k = 0; k < steps; ++k) {
    cur.then([&](std::span<const int> in, std::vector<int>& into) {
      if (k < children_.size()) return children_[k]->contribute(c, in, into);
      expand_expected(*stages[k], c.est, c.g, in, into, c.ids, c.limits, depth_ + 1);
    });
  }
  out.insert(out.end(), cur.ids().begin(), cur.ids().end());
}

}  // namespace askel
