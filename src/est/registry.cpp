#include "est/registry.hpp"

namespace askel {

std::int64_t estimate_key(int muscle_id, int depth) {
  // Depths are small (trace length); bias by 1 so kAnyDepth maps to 0.
  return (static_cast<std::int64_t>(muscle_id) << 20) |
         static_cast<std::int64_t>(depth + 1);
}

int estimate_key_muscle(std::int64_t key) { return static_cast<int>(key >> 20); }

int estimate_key_depth(std::int64_t key) {
  return static_cast<int>(key & 0xFFFFF) - 1;
}

// -------------------------------------------------------------- Estimates --

const Estimates::Entry* Estimates::find(int muscle_id, int depth) const {
  const auto it = map_.find(estimate_key(muscle_id, depth));
  return it == map_.end() ? nullptr : &it->second;
}

std::optional<double> Estimates::t(int muscle_id) const {
  const Entry* e = find(muscle_id, kAnyDepth);
  return e ? e->t : std::nullopt;
}

std::optional<double> Estimates::cardinality(int muscle_id) const {
  const Entry* e = find(muscle_id, kAnyDepth);
  return e ? e->card : std::nullopt;
}

double Estimates::t_or(int muscle_id, double fallback) const {
  return t(muscle_id).value_or(fallback);
}

double Estimates::cardinality_or(int muscle_id, double fallback) const {
  return cardinality(muscle_id).value_or(fallback);
}

std::optional<double> Estimates::t(int muscle_id, int depth) const {
  if (scope_ == EstimationScope::kPerDepth) {
    const Entry* e = find(muscle_id, depth);
    if (e && e->t) return e->t;
  }
  return t(muscle_id);
}

std::optional<double> Estimates::cardinality(int muscle_id, int depth) const {
  if (scope_ == EstimationScope::kPerDepth) {
    const Entry* e = find(muscle_id, depth);
    if (e && e->card) return e->card;
  }
  return cardinality(muscle_id);
}

void Estimates::set(int muscle_id, Entry e) { set(muscle_id, kAnyDepth, e); }

void Estimates::set(int muscle_id, int depth, Entry e) {
  map_[estimate_key(muscle_id, depth)] = e;
}

// ------------------------------------------------------- EstimateRegistry --

EstimateRegistry::EstimateRegistry(double rho, EstimationScope scope)
    : EstimateRegistry(EstimatorConfig{.kind = EstimatorKind::kEwma, .rho = rho},
                       scope) {}

EstimateRegistry::EstimateRegistry(const EstimatorConfig& estimator,
                                   EstimationScope scope)
    : est_cfg_(estimator), scope_(scope) {
  // Validate eagerly: a bad config must throw here, not on the first
  // observation from a worker thread.
  (void)make_estimator(est_cfg_);
}

MuscleStats& EstimateRegistry::stats_locked(std::int64_t key) {
  return stats_.try_emplace(key, est_cfg_).first->second;
}

std::optional<double> EstimateRegistry::t_locked(std::int64_t key) const {
  const auto it = stats_.find(key);
  return it == stats_.end() ? std::nullopt : it->second.t();
}

std::optional<double> EstimateRegistry::card_locked(std::int64_t key) const {
  const auto it = stats_.find(key);
  return it == stats_.end() ? std::nullopt : it->second.cardinality();
}

bool EstimateRegistry::observe_duration_locked(std::int64_t key, double seconds) {
  MuscleStats& st = stats_locked(key);
  const bool had = st.t().has_value();
  st.observe_duration(seconds);
  return !had && st.t().has_value();
}

bool EstimateRegistry::observe_cardinality_locked(std::int64_t key, double card) {
  MuscleStats& st = stats_locked(key);
  const bool had = st.cardinality().has_value();
  st.observe_cardinality(card);
  return !had && st.cardinality().has_value();
}

void EstimateRegistry::observe_duration(int muscle_id, int depth, double seconds) {
  std::lock_guard lock(mu_);
  bool gained = observe_duration_locked(estimate_key(muscle_id, kAnyDepth), seconds);
  if (depth != kAnyDepth)
    gained |= observe_duration_locked(estimate_key(muscle_id, depth), seconds);
  if (gained) bump_coverage_locked();
  ++version_;
}

void EstimateRegistry::observe_cardinality(int muscle_id, int depth, double card) {
  std::lock_guard lock(mu_);
  bool gained = observe_cardinality_locked(estimate_key(muscle_id, kAnyDepth), card);
  if (depth != kAnyDepth)
    gained |= observe_cardinality_locked(estimate_key(muscle_id, depth), card);
  if (gained) bump_coverage_locked();
  ++version_;
}

void EstimateRegistry::observe_duration(int muscle_id, double seconds) {
  observe_duration(muscle_id, kAnyDepth, seconds);
}

void EstimateRegistry::observe_cardinality(int muscle_id, double card) {
  observe_cardinality(muscle_id, kAnyDepth, card);
}

void EstimateRegistry::init_duration(int muscle_id, double seconds) {
  init_duration(muscle_id, kAnyDepth, seconds);
}

void EstimateRegistry::init_cardinality(int muscle_id, double card) {
  init_cardinality(muscle_id, kAnyDepth, card);
}

void EstimateRegistry::init_duration(int muscle_id, int depth, double seconds) {
  std::lock_guard lock(mu_);
  stats_locked(estimate_key(muscle_id, depth)).init_duration(seconds);
  bump_coverage_locked();
  ++version_;
}

void EstimateRegistry::init_cardinality(int muscle_id, int depth, double card) {
  std::lock_guard lock(mu_);
  stats_locked(estimate_key(muscle_id, depth)).init_cardinality(card);
  bump_coverage_locked();
  ++version_;
}

void EstimateRegistry::init_from(const Estimates& previous) {
  // One lock for the whole seeding: readers see all of it or none of it.
  std::lock_guard lock(mu_);
  previous.for_each([&](std::int64_t key, const Estimates::Entry& entry) {
    MuscleStats& st = stats_locked(key);
    if (entry.t) st.init_duration(*entry.t);
    if (entry.card) st.init_cardinality(*entry.card);
  });
  bump_coverage_locked();
  ++version_;
}

std::optional<double> EstimateRegistry::t(int muscle_id) const {
  std::lock_guard lock(mu_);
  return t_locked(estimate_key(muscle_id, kAnyDepth));
}

std::optional<double> EstimateRegistry::cardinality(int muscle_id) const {
  std::lock_guard lock(mu_);
  return card_locked(estimate_key(muscle_id, kAnyDepth));
}

std::optional<double> EstimateRegistry::t(int muscle_id, int depth) const {
  std::lock_guard lock(mu_);
  if (scope_ == EstimationScope::kPerDepth) {
    if (const auto v = t_locked(estimate_key(muscle_id, depth))) return v;
  }
  return t_locked(estimate_key(muscle_id, kAnyDepth));
}

std::optional<double> EstimateRegistry::cardinality(int muscle_id, int depth) const {
  std::lock_guard lock(mu_);
  if (scope_ == EstimationScope::kPerDepth) {
    if (const auto v = card_locked(estimate_key(muscle_id, depth))) return v;
  }
  return card_locked(estimate_key(muscle_id, kAnyDepth));
}

Estimates EstimateRegistry::snapshot() const {
  Estimates out;
  out.set_scope(scope_);
  std::lock_guard lock(mu_);
  out.map_.reserve(stats_.size());
  for (const auto& [key, st] : stats_) {
    out.map_.emplace(key, Estimates::Entry{st.t(), st.cardinality()});
  }
  return out;
}

void EstimateRegistry::snapshot_into(Estimates& out) const {
  out.set_scope(scope_);
  std::lock_guard lock(mu_);
  for (const auto& [key, st] : stats_) {
    out.map_[key] = Estimates::Entry{st.t(), st.cardinality()};
  }
  if (out.map_.size() == stats_.size()) return;
  // Keys only disappear on clear(): rebuild rather than hunt for them.
  out.map_.clear();
  for (const auto& [key, st] : stats_) {
    out.map_.emplace(key, Estimates::Entry{st.t(), st.cardinality()});
  }
}

std::uint64_t EstimateRegistry::version() const {
  std::lock_guard lock(mu_);
  return version_;
}

void EstimateRegistry::clear() {
  std::lock_guard lock(mu_);
  stats_.clear();
  bump_coverage_locked();
  ++version_;
}

}  // namespace askel
