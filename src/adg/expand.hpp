#pragma once
// Expected-future expansion: append to a snapshot the activities that a
// not-yet-started (sub-)skeleton is *expected* to perform, using the current
// |m| estimates for fan-out/iteration counts and t(m) for durations.
//
// The tracker layer uses this for map children that exist only as a count in
// fsCard, for future While/For iterations, and for the unexplored part of a
// d&C recursion tree.

#include <cstddef>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "adg/snapshot.hpp"
#include "est/registry.hpp"
#include "skel/nodes.hpp"

namespace askel {

struct ExpandLimits {
  /// Hard cap on snapshot size (AdgSnapshot::size(), folded activities
  /// included); hitting it sets snapshot.truncated and stops expanding (a
  /// d&C with badly over-estimated fan-out could explode).
  std::size_t max_activities = 100000;
  /// Recursion depth guard.
  int max_depth = 64;
};

/// A stack of reusable id buffers for building snapshots: take() lends the
/// next free buffer, empty, until the returned lease goes out of scope.
/// Leases nest (last taken, first returned), as recursive expansion does.
class IdBuffers {
 public:
  class Lease {
   public:
    explicit Lease(IdBuffers& pool) : pool_(pool), buf_(pool.acquire()) {}
    ~Lease() { --pool_.depth_; }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    std::vector<int>& operator*() const { return buf_; }
    std::vector<int>* operator->() const { return &buf_; }

   private:
    IdBuffers& pool_;
    std::vector<int>& buf_;
  };

  Lease take() { return Lease(*this); }

 private:
  std::vector<int>& acquire() {
    if (depth_ == bufs_.size()) bufs_.emplace_back();
    std::vector<int>& b = bufs_[depth_++];
    b.clear();
    return b;
  }

  std::deque<std::vector<int>> bufs_;  // deque: growth keeps leases valid
  std::size_t depth_ = 0;
};

/// The id list threaded through a chain of steps (pipe stages, loop turns):
/// each step's terminals become the next step's preds. Holds two buffers
/// leased from `ids`.
class IdChain {
 public:
  IdChain(IdBuffers& ids, std::span<const int> preds)
      : a_(ids.take()), b_(ids.take()), cur_(&*a_), next_(&*b_) {
    cur_->assign(preds.begin(), preds.end());
  }
  const std::vector<int>& ids() const { return *cur_; }
  /// Replace the list with one id.
  void set(int id) { cur_->assign(1, id); }
  /// Run `step(preds, out)` on the list and keep what it appended to `out`.
  template <class Step>
  void then(Step&& step) {
    next_->clear();
    step(std::span<const int>(*cur_), *next_);
    std::swap(cur_, next_);
  }

 private:
  IdBuffers::Lease a_;
  IdBuffers::Lease b_;
  std::vector<int>* cur_;
  std::vector<int>* next_;
};

/// Expand one expected execution of `node` whose inputs become ready when all
/// of `preds` finish, appending to `out` the ids of the terminal activities
/// the node's result depends on (used to wire the consumer's preds).
///
/// Estimation gaps: a muscle without t(m) contributes a 0-duration activity
/// and clears snapshot.complete_estimates; a Split/Condition without |m|
/// falls back to cardinality 1 and also clears the flag.
///
/// `est_depth` is the dynamic nesting depth at which `node`'s instance would
/// run (0 = root); nested children sit one deeper. Only relevant when the
/// estimate snapshot uses EstimationScope::kPerDepth.
void expand_expected(const SkelNode& node, const Estimates& est, AdgSnapshot& g,
                     std::span<const int> preds, std::vector<int>& out,
                     IdBuffers& ids, const ExpandLimits& lim, int est_depth);

/// Expected expansion of a d&C instance sitting at recursion level `level`
/// (the root call is level 0): condition, then leaf or split/children/merge
/// depending on the estimated recursion depth |fc|.
void expand_expected_dac(const DacNode& node, const Estimates& est, AdgSnapshot& g,
                         std::span<const int> preds, std::vector<int>& out,
                         IdBuffers& ids, long level, const ExpandLimits& lim,
                         int est_depth);

/// Same, but for an instance whose condition has already executed: only what
/// follows the condition. `divided` is the condition's (known or assumed)
/// result.
void expand_dac_body(const DacNode& node, const Estimates& est, AdgSnapshot& g,
                     std::span<const int> preds, std::vector<int>& out,
                     IdBuffers& ids, long level, bool divided,
                     const ExpandLimits& lim, int est_depth);

/// Append one pending activity for `m` using t(m) from `est` (0 + incomplete
/// flag when unknown). Returns the new activity id.
int add_pending_muscle(AdgSnapshot& g, const Estimates& est, const Muscle& m,
                       std::span<const int> preds, int est_depth = kAnyDepth);

/// Cardinality estimate rounded to a usable count (>= 0).
long rounded_cardinality(const Estimates& est, int muscle_id, long fallback,
                         bool* known = nullptr, int est_depth = kAnyDepth);

}  // namespace askel
