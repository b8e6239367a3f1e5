#include "sm/trackers.hpp"

namespace askel {

// Figure 3: seq(fe)@b(i) stores the start timestamp; seq(fe)@a(i) updates
// t(fe) = ρ(now − eti) + (1−ρ)t(fe) and moves to F.
void SeqTracker::on_event(const Event& ev, EstimateRegistry& reg) {
  if (ev.where != Where::kExecute) return;
  if (ev.when == When::kBefore) {
    const auto& seq = static_cast<const SeqNode&>(*node_);
    open_rec(fe_, ev, seq.fe().name().c_str());
  } else if (fe_ && !fe_->done()) {
    close_rec(*fe_, ev);
    observe_duration_of(reg, *fe_);
    mark_finished();
  }
}

void SeqTracker::contribute(SnapshotCtx& c, std::span<const int> preds,
                            std::vector<int>& out) const {
  if (!fe_) {
    return expand_expected(*node_, c.est, c.g, preds, out, c.ids, c.limits, depth_);
  }
  out.push_back(add_record(c, *fe_, preds));
}

}  // namespace askel
