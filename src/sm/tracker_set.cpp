#include "sm/tracker_set.hpp"

#include <algorithm>

#include "events/listener.hpp"

namespace askel {

// ---------------------------------------------------------------- Tracker --

Tracker::Tracker(const SkelNode* node, std::int64_t exec_id,
                 std::int64_t parent_exec_id)
    : node_(node), exec_id_(exec_id), parent_exec_id_(parent_exec_id) {}

void Tracker::attach_child(TrackerPtr child) {
  child->depth_ = depth_ + 1;
  children_.push_back(std::move(child));
}

int Tracker::add_record(SnapshotCtx& c, const MuscleRec& rec,
                        std::span<const int> preds) const {
  if (rec.done()) {
    if (c.history != nullptr) {
      c.g.fold_done(*rec.end);
      if (rec.history_gen != c.history_gen) {
        c.history->add(rec.start, *rec.end);
        rec.history_gen = c.history_gen;
      }
      return kFolded;
    }
    return c.g.add(make_done(rec.muscle_id, rec.label, rec.start, *rec.end, {}), preds);
  }
  const auto t = c.est.t(rec.muscle_id, depth_);
  Activity a = make_running(rec.muscle_id, rec.label, rec.start, t.value_or(0.0), {});
  a.has_estimate = t.has_value();
  return c.g.add(std::move(a), preds);
}

void Tracker::observe_duration_of(EstimateRegistry& reg, const MuscleRec& rec) const {
  reg.observe_duration(rec.muscle_id, depth_, *rec.end - rec.start);
}

void Tracker::open_rec(std::optional<MuscleRec>& slot, const Event& ev,
                       const char* label) {
  if (slot && slot->history_gen != 0) replaced_history_ = true;
  slot = open_rec(ev, label);
}

MuscleRec Tracker::open_rec(const Event& ev, const char* fallback_label) {
  MuscleRec r;
  r.muscle_id = ev.muscle_id;
  r.label = fallback_label ? fallback_label : "m";
  r.start = ev.timestamp;
  return r;
}

void Tracker::close_rec(MuscleRec& rec, const Event& ev) {
  rec.end = ev.timestamp;
  rec.cond_result = ev.condition_result;
  rec.cardinality = ev.cardinality;
}

TrackerPtr make_tracker(const SkelNode* node, const Event& ev) {
  switch (node->kind()) {
    case SkelKind::kSeq:
      return std::make_shared<SeqTracker>(node, ev.exec_id, ev.parent_exec_id);
    case SkelKind::kFarm:
      return std::make_shared<FarmTracker>(node, ev.exec_id, ev.parent_exec_id);
    case SkelKind::kPipe:
      return std::make_shared<PipeTracker>(node, ev.exec_id, ev.parent_exec_id);
    case SkelKind::kWhile:
      return std::make_shared<WhileTracker>(node, ev.exec_id, ev.parent_exec_id);
    case SkelKind::kFor:
      return std::make_shared<ForTracker>(node, ev.exec_id, ev.parent_exec_id);
    case SkelKind::kIf:
      return std::make_shared<IfTracker>(node, ev.exec_id, ev.parent_exec_id);
    case SkelKind::kMap:
      return std::make_shared<MapTracker>(node, ev.exec_id, ev.parent_exec_id);
    case SkelKind::kFork:
      return std::make_shared<ForkTracker>(node, ev.exec_id, ev.parent_exec_id);
    case SkelKind::kDaC:
      return std::make_shared<DacTracker>(node, ev.exec_id, ev.parent_exec_id);
  }
  return nullptr;  // unreachable
}

// ------------------------------------------------------------- TrackerSet --

namespace {

// An event stamped after the caller read `now` may already be ingested (it
// raced the caller to the lock); observing it means that moment has passed.
// Collects the running activities' starts into `running_starts` if given.
void raise_now(AdgSnapshot& g, std::vector<TimePoint>* running_starts) {
  g.now = std::max(g.now, g.done_end);
  if (running_starts != nullptr) running_starts->clear();
  for (const Activity& a : g.activities) {
    if (a.state != ActivityState::kRunning) continue;
    g.now = std::max(g.now, a.start);
    if (running_starts != nullptr) running_starts->push_back(a.start);
  }
}

}  // namespace

TrackerSet::TrackerSet(EstimateRegistry& reg) : reg_(reg) {}

void TrackerSet::on_event(const Event& ev) {
  if (ev.exec_id < 0 || ev.node == nullptr) return;
  std::lock_guard lock(mu_);
  TrackerPtr t;
  const auto it = by_exec_.find(ev.exec_id);
  if (it != by_exec_.end()) {
    t = it->second;
  } else {
    t = make_tracker(ev.node, ev);
    by_exec_.emplace(ev.exec_id, t);
    const auto pit = by_exec_.find(ev.parent_exec_id);
    if (pit != by_exec_.end()) {
      pit->second->attach_child(t);
      // Recursion-level bookkeeping for d&C: a DaC child of a DaC instance of
      // the same static node sits one level deeper.
      auto* child_dac = dynamic_cast<DacTracker*>(t.get());
      auto* parent_dac = dynamic_cast<DacTracker*>(pit->second.get());
      if (child_dac && parent_dac && parent_dac->node() == child_dac->node()) {
        child_dac->set_level(parent_dac->level() + 1);
      }
    } else {
      retire_finished_roots_locked();
      roots_.push_back(t);
      bump_epoch_locked();
      restart_history_locked();
    }
  }
  const bool was_finished = t->finished();
  t->on_event(ev, reg_);
  if (t->take_replaced_history()) restart_history_locked();
  bool resolved = ev.when == When::kAfter &&
                  (ev.where == Where::kSplit || ev.where == Where::kCondition ||
                   ev.where == Where::kMerge);
  if (!was_finished && t->finished()) {
    // A finished While stops expanding its expected tail.
    resolved |= t->node()->kind() == SkelKind::kWhile;
    // The root d&C instance observes |fc| = divide depth when it completes;
    // the new value re-shapes the expansion of d&C instances still to come.
    if (auto* dac = dynamic_cast<DacTracker*>(t.get()); dac && dac->level() == 0) {
      reg_.observe_cardinality(dac->dac().fc().id(),
                               static_cast<double>(dac->divide_depth()));
      resolved = true;
    }
  }
  if (resolved) bump_epoch_locked();
}

EventBus::ListenerPtr TrackerSet::as_listener() {
  // One shared adapter for the set's lifetime: repeated registration (e.g. a
  // bus per run sharing one TrackerSet) must not allocate a fresh listener
  // each time. Delivery semantics are unchanged — registering the same
  // adapter twice still yields two registration-order slots.
  std::lock_guard lock(mu_);
  if (!listener_) {
    listener_ = std::make_shared<ObserverListener>(
        [this](const Event& ev) { on_event(ev); });
  }
  return listener_;
}

AdgSnapshot TrackerSet::snapshot(TimePoint now) const {
  AdgSnapshot g;
  snapshot(now, SnapshotForm::kFull, g);
  return g;
}

void TrackerSet::snapshot(TimePoint now, SnapshotForm form, AdgSnapshot& g) const {
  g.clear();
  g.now = now;
  const bool frontier = form == SnapshotForm::kFrontier;
  {
    std::lock_guard lock(mu_);
    if (roots_.empty()) return;
    reg_.snapshot_into(est_);
    SnapshotCtx c{g, est_, limits, ids_, frontier ? &history_ : nullptr, history_gen_};
    {
      const IdBuffers::Lease terminals = ids_.take();
      roots_.back()->contribute(c, {}, *terminals);
    }
    if (frontier) {
      // The past peak reads the shared history, so it stays under the lock;
      // the pass is over the frontier only.
      raise_now(g, &running_starts_);
      g.past_peak = history_.peak_before(g.now, running_starts_);
      return;
    }
  }
  // Reads only the local `g`, so it runs outside the lock.
  raise_now(g, nullptr);
}

TrackerPtr TrackerSet::current_root() const {
  std::lock_guard lock(mu_);
  return roots_.empty() ? nullptr : roots_.back();
}

bool TrackerSet::root_finished() const {
  const TrackerPtr r = current_root();
  return r && r->finished();
}

std::size_t TrackerSet::tracked_instances() const {
  std::lock_guard lock(mu_);
  return by_exec_.size();
}

ResolutionStamp TrackerSet::resolution_stamp() const {
  return {reg_.coverage_version(), epoch_.load(std::memory_order_acquire)};
}

void TrackerSet::retire_finished_roots_locked() {
  std::vector<const Tracker*> stack;
  std::erase_if(roots_, [&](const TrackerPtr& root) {
    if (!root->finished()) return false;
    stack.push_back(root.get());
    while (!stack.empty()) {
      const Tracker* t = stack.back();
      stack.pop_back();
      by_exec_.erase(t->exec_id());
      for (const TrackerPtr& child : t->children()) stack.push_back(child.get());
    }
    return true;
  });
}

void TrackerSet::reset() {
  std::lock_guard lock(mu_);
  by_exec_.clear();
  roots_.clear();
  bump_epoch_locked();
  restart_history_locked();
}

void TrackerSet::restart_history_locked() {
  history_.clear();
  ++history_gen_;
}

}  // namespace askel
