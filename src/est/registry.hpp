#pragma once
// Thread-safe registry of muscle estimates, keyed by muscle id.
//
// Writers are the state machines (on After events, from worker threads);
// readers are the ADG expansion and the autonomic controller. Readers take a
// consistent `Estimates` snapshot so a whole scheduling computation sees one
// coherent set of values.
//
// Two estimation scopes are supported:
//  * kAggregate (the paper's Skandium v1.1b1): one t(m)/|m| per muscle
//    object. Sharing a muscle across nesting levels (Listing 1 shares fs and
//    fm) deliberately shares — and conflates — its estimate.
//  * kPerDepth (this repo's implementation of the paper's §6 future work on
//    "different WCT estimation algorithms"): estimates are additionally kept
//    per dynamic nesting depth, and lookups prefer the depth-specific value.
//    This eliminates the outer-vs-inner split conflation of the §5 workload.
//
// Observations always record BOTH layers, so the scope can be chosen at
// lookup time and snapshots carry everything.
//
// Concurrency: one mutex guards the whole registry. A registry serves one
// skeleton, so it holds a handful of entries, and a snapshot is read once per
// Analyze step; copying those entries under the lock costs far less than the
// step that consumes them.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "est/estimator.hpp"
#include "est/muscle_stats.hpp"

namespace askel {

enum class EstimationScope : int {
  kAggregate,  // per-muscle (the paper's implementation)
  kPerDepth,   // per (muscle, nesting depth), falling back to aggregate
};

/// Depth value representing the aggregate (depth-less) layer.
inline constexpr int kAnyDepth = -1;

/// Composite key: (muscle id, depth). Depth kAnyDepth = aggregate layer.
std::int64_t estimate_key(int muscle_id, int depth);
/// Inverse of estimate_key.
int estimate_key_muscle(std::int64_t key);
int estimate_key_depth(std::int64_t key);

/// Value snapshot of the registry: a plain map of estimate values. Copies
/// are independent, so callers may hold or mutate theirs freely.
class Estimates {
 public:
  struct Entry {
    std::optional<double> t;
    std::optional<double> card;
  };
  using Map = std::unordered_map<std::int64_t, Entry>;

  /// Aggregate lookups (depth-less).
  std::optional<double> t(int muscle_id) const;
  std::optional<double> cardinality(int muscle_id) const;
  double t_or(int muscle_id, double fallback) const;
  double cardinality_or(int muscle_id, double fallback) const;
  bool has_t(int muscle_id) const { return t(muscle_id).has_value(); }

  /// Depth-aware lookups: per-depth value when the snapshot's scope is
  /// kPerDepth and one exists, else the aggregate value.
  std::optional<double> t(int muscle_id, int depth) const;
  std::optional<double> cardinality(int muscle_id, int depth) const;

  /// Store an aggregate entry (tests and hand-built estimate sets).
  void set(int muscle_id, Entry e);
  /// Store a depth-specific entry.
  void set(int muscle_id, int depth, Entry e);

  EstimationScope scope() const { return scope_; }
  void set_scope(EstimationScope s) { scope_ = s; }

  std::size_t size() const { return map_.size(); }

  /// Visit every (composite key, entry) pair. Iteration order is unspecified.
  template <class F>
  void for_each(F&& f) const {
    for (const auto& [key, entry] : map_) f(key, entry);
  }

 private:
  friend class EstimateRegistry;  // snapshot() fills map_ directly

  const Entry* find(int muscle_id, int depth) const;

  EstimationScope scope_ = EstimationScope::kAggregate;
  Map map_;
};

class EstimateRegistry {
 public:
  /// Legacy constructor: the paper's EWMA at `rho` for every muscle.
  explicit EstimateRegistry(double rho = 0.5,
                            EstimationScope scope = EstimationScope::kAggregate);

  /// Estimator-family constructor (per-scope factory): every muscle entry in
  /// this registry — both layers, duration and cardinality — is estimated by
  /// a fresh clone of the configured estimator. Snapshots carry values, not
  /// estimator state, so their semantics are estimator-agnostic.
  explicit EstimateRegistry(const EstimatorConfig& estimator,
                            EstimationScope scope = EstimationScope::kAggregate);

  /// Record an observation at a known nesting depth (both layers updated).
  void observe_duration(int muscle_id, int depth, double seconds);
  void observe_cardinality(int muscle_id, int depth, double card);
  /// Depth-less convenience (updates only the aggregate layer).
  void observe_duration(int muscle_id, double seconds);
  void observe_cardinality(int muscle_id, double card);

  /// Paper scenario 2 ("Goal with initialization"): seed estimates, e.g.
  /// from a previous run exported with `snapshot()`.
  void init_duration(int muscle_id, double seconds);
  void init_cardinality(int muscle_id, double card);
  void init_duration(int muscle_id, int depth, double seconds);
  void init_cardinality(int muscle_id, int depth, double card);
  /// Seed every estimate present in `previous` (both layers).
  void init_from(const Estimates& previous);

  std::optional<double> t(int muscle_id) const;
  std::optional<double> cardinality(int muscle_id) const;
  std::optional<double> t(int muscle_id, int depth) const;
  std::optional<double> cardinality(int muscle_id, int depth) const;

  /// Consistent snapshot of everything, built under the registry lock.
  Estimates snapshot() const;
  /// Same, into `out`, reusing its entries (no allocation when the set of
  /// estimated keys is unchanged since `out` was last filled).
  void snapshot_into(Estimates& out) const;
  /// Monotonic write counter; bumped by every observe/init/clear. Exposed
  /// for tests and monitoring ("did anything change since I last looked?").
  std::uint64_t version() const;
  /// Coverage counter: bumped only when some key's duration or cardinality
  /// estimate first becomes available, and by every init_*, init_from and
  /// clear. Refinements of existing estimates leave it alone, so "unchanged
  /// since an incomplete snapshot" proves no estimate that snapshot lacked
  /// has appeared since. Lock-free read.
  std::uint64_t coverage_version() const {
    return coverage_.load(std::memory_order_acquire);
  }
  /// Smoothing of the configured estimator (meaningful for kEwma; kept for
  /// the pre-estimator-family API).
  double rho() const { return est_cfg_.rho; }
  /// The per-muscle estimator factory this registry clones from.
  const EstimatorConfig& estimator_config() const { return est_cfg_; }
  EstimationScope scope() const { return scope_; }
  void clear();

 private:
  MuscleStats& stats_locked(std::int64_t key);
  /// Observe into `key`; true when that made its estimate available.
  bool observe_duration_locked(std::int64_t key, double seconds);
  bool observe_cardinality_locked(std::int64_t key, double card);
  void bump_coverage_locked() { coverage_.fetch_add(1, std::memory_order_release); }
  std::optional<double> t_locked(std::int64_t key) const;
  std::optional<double> card_locked(std::int64_t key) const;

  EstimatorConfig est_cfg_;
  EstimationScope scope_;
  mutable std::mutex mu_;
  std::unordered_map<std::int64_t, MuscleStats> stats_;  // guarded by mu_
  std::uint64_t version_ = 0;                            // guarded by mu_
  std::atomic<std::uint64_t> coverage_{0};               // written under mu_
};

}  // namespace askel
