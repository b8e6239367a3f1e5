#include "adg/expand.hpp"

#include <algorithm>
#include <cmath>

namespace askel {
namespace {

std::span<const int> one(const int& id) { return {&id, 1}; }

void append(std::vector<int>& out, std::span<const int> ids) {
  out.insert(out.end(), ids.begin(), ids.end());
}

class Expander {
 public:
  Expander(const Estimates& est, AdgSnapshot& g, IdBuffers& ids,
           const ExpandLimits& lim)
      : est_(est), g_(g), ids_(ids), lim_(lim) {}

  // Each step appends to `out` the terminal ids of what it expanded; when the
  // size guard stops it, it appends what it was given instead.
  // `depth` is the recursion guard; `ed` the estimation (dynamic nesting)
  // depth used for per-depth estimate lookups.
  void expand(const SkelNode& node, std::span<const int> preds, std::vector<int>& out,
              int depth, int ed) {
    if (depth > lim_.max_depth || g_.size() >= lim_.max_activities) {
      g_.truncated = true;
      append(out, preds);
      return;
    }
    switch (node.kind()) {
      case SkelKind::kSeq: {
        const auto& n = static_cast<const SeqNode&>(node);
        out.push_back(add_muscle(n.fe(), preds, ed));
        return;
      }
      case SkelKind::kFarm: {
        const auto& n = static_cast<const FarmNode&>(node);
        expand(*n.children()[0], preds, out, depth + 1, ed + 1);
        return;
      }
      case SkelKind::kPipe: {
        const auto& n = static_cast<const PipeNode&>(node);
        const auto kids = n.children();
        const IdBuffers::Lease mid = ids_.take();
        expand(*kids[0], preds, *mid, depth + 1, ed + 1);
        expand(*kids[1], *mid, out, depth + 1, ed + 1);
        return;
      }
      case SkelKind::kWhile: {
        const auto& n = static_cast<const WhileNode&>(node);
        // |fc| = expected number of `true` results; the condition itself runs
        // iters+1 times (the last one returns false).
        bool known = false;
        const long iters = rounded_cardinality(est_, n.fc().id(), 1, &known, ed);
        if (!known) g_.complete_estimates = false;
        IdChain cur(ids_, preds);
        for (long k = 0; k < iters; ++k) {
          if (g_.size() >= lim_.max_activities) {
            g_.truncated = true;
            append(out, cur.ids());
            return;
          }
          cur.set(add_muscle(n.fc(), cur.ids(), ed));
          cur.then([&](std::span<const int> in, std::vector<int>& into) {
            expand(*n.children()[0], in, into, depth + 1, ed + 1);
          });
        }
        out.push_back(add_muscle(n.fc(), cur.ids(), ed));
        return;
      }
      case SkelKind::kFor: {
        const auto& n = static_cast<const ForNode&>(node);
        IdChain cur(ids_, preds);
        for (int k = 0; k < n.iterations(); ++k) {
          if (g_.size() >= lim_.max_activities) {
            g_.truncated = true;
            break;
          }
          cur.then([&](std::span<const int> in, std::vector<int>& into) {
            expand(*n.children()[0], in, into, depth + 1, ed + 1);
          });
        }
        append(out, cur.ids());
        return;
      }
      case SkelKind::kIf: {
        // The paper's v1.1b1 leaves If unsupported ("produces a duplication
        // of the whole ADG"). We track it conservatively by expanding the
        // true branch after the condition — documented deviation.
        const auto& n = static_cast<const IfNode&>(node);
        const int cond =
            add_muscle(*static_cast<const ConditionMuscle*>(n.muscles()[0]), preds, ed);
        expand(*n.true_branch(), one(cond), out, depth + 1, ed + 1);
        return;
      }
      case SkelKind::kMap: {
        const auto& n = static_cast<const MapNode&>(node);
        bool known = false;
        const long card = rounded_cardinality(est_, n.fs().id(), 1, &known, ed);
        if (!known) g_.complete_estimates = false;
        const int split_id = add_muscle(n.fs(), preds, ed);
        fan_out(card, split_id, n.fm(), out, ed, [&](long, std::vector<int>& into) {
          expand(*n.children()[0], one(split_id), into, depth + 1, ed + 1);
        });
        return;
      }
      case SkelKind::kFork: {
        const auto& n = static_cast<const ForkNode&>(node);
        const auto* fs = static_cast<const SplitMuscle*>(n.muscles()[0]);
        const auto* fm = static_cast<const MergeMuscle*>(n.muscles()[1]);
        bool known = false;
        const long card = rounded_cardinality(
            est_, fs->id(), static_cast<long>(n.branch_count()), &known, ed);
        if (!known) g_.complete_estimates = false;
        const int split_id = add_muscle(*fs, preds, ed);
        const auto kids = n.children();
        fan_out(card, split_id, *fm, out, ed, [&](long k, std::vector<int>& into) {
          const SkelNode& branch = *kids[static_cast<std::size_t>(k) % kids.size()];
          expand(branch, one(split_id), into, depth + 1, ed + 1);
        });
        return;
      }
      case SkelKind::kDaC: {
        const auto& n = static_cast<const DacNode&>(node);
        expand_dac(n, preds, out, 0, estimated_depth(n, ed), depth, ed);
        return;
      }
    }
  }

  long estimated_depth(const DacNode& n, int ed) {
    bool depth_known = false;
    const long rec_depth =
        rounded_cardinality(est_, n.fc().id(), 0, &depth_known, ed);
    if (!depth_known) g_.complete_estimates = false;
    return rec_depth;
  }

  /// One level of an expected d&C tree: condition, then its body.
  void expand_dac(const DacNode& n, std::span<const int> preds, std::vector<int>& out,
                  long level, long rec_depth, int depth, int ed) {
    if (depth > lim_.max_depth || g_.size() >= lim_.max_activities) {
      g_.truncated = true;
      append(out, preds);
      return;
    }
    const int cond_id = add_muscle(n.fc(), preds, ed);
    dac_body(n, one(cond_id), out, level, rec_depth, level < rec_depth, depth, ed);
  }

  /// What follows a d&C condition: the leaf skeleton when not dividing, else
  /// split / `branching` recursive children / merge.
  void dac_body(const DacNode& n, std::span<const int> preds, std::vector<int>& out,
                long level, long rec_depth, bool divided, int depth, int ed) {
    if (depth > lim_.max_depth || g_.size() >= lim_.max_activities) {
      g_.truncated = true;
      append(out, preds);
      return;
    }
    if (!divided) {
      expand(*n.children()[0], preds, out, depth + 1, ed + 1);
      return;
    }
    bool known = false;
    const long branching = rounded_cardinality(est_, n.fs().id(), 1, &known, ed);
    if (!known) g_.complete_estimates = false;
    const int split_id = add_muscle(n.fs(), preds, ed);
    fan_out(branching, split_id, n.fm(), out, ed, [&](long, std::vector<int>& into) {
      expand_dac(n, one(split_id), into, level + 1, rec_depth, depth + 1, ed + 1);
    });
  }

 private:
  /// `count` expanded branches after `split_id`, then the merge `fm` over
  /// their terminals (over the split alone when there are none).
  template <class Branch>
  void fan_out(long count, int split_id, const Muscle& fm, std::vector<int>& out,
               int ed, Branch&& branch) {
    const IdBuffers::Lease merge_preds = ids_.take();
    // Each branch typically contributes one terminal; reserving the known
    // cardinality avoids O(log card) grow-and-copy cycles on large-ADG
    // expansion.
    merge_preds->reserve(reserve_hint(count));
    for (long k = 0; k < count; ++k) {
      if (g_.size() >= lim_.max_activities) {
        g_.truncated = true;
        break;
      }
      branch(k, *merge_preds);
    }
    if (merge_preds->empty()) merge_preds->push_back(split_id);
    out.push_back(add_muscle(fm, *merge_preds, ed));
  }

  int add_muscle(const Muscle& m, std::span<const int> preds, int ed) {
    return add_pending_muscle(g_, est_, m, preds, ed);
  }

  std::size_t reserve_hint(long cardinality) const {
    // Clamp in size_t (max_activities may legitimately be SIZE_MAX, "no
    // cap") to the *remaining* activity budget — the merge loop truncates
    // there anyway — and to a sane constant so a wild cardinality estimate
    // never turns an optimization hint into a huge allocation.
    constexpr std::size_t kMaxHint = 1 << 16;
    const std::size_t want =
        cardinality > 0 ? static_cast<std::size_t>(cardinality) : 0;
    const std::size_t remaining =
        lim_.max_activities > g_.size() ? lim_.max_activities - g_.size() : 0;
    return std::min({want, remaining, kMaxHint});
  }

  const Estimates& est_;
  AdgSnapshot& g_;
  IdBuffers& ids_;
  const ExpandLimits& lim_;
};

}  // namespace

long rounded_cardinality(const Estimates& est, int muscle_id, long fallback,
                         bool* known, int est_depth) {
  const auto c = est.cardinality(muscle_id, est_depth);
  if (known) *known = c.has_value();
  if (!c) return fallback;
  return std::max<long>(0, std::lround(*c));
}

void expand_expected(const SkelNode& node, const Estimates& est, AdgSnapshot& g,
                     std::span<const int> preds, std::vector<int>& out,
                     IdBuffers& ids, const ExpandLimits& lim, int est_depth) {
  Expander(est, g, ids, lim).expand(node, preds, out, 0, est_depth);
}

void expand_expected_dac(const DacNode& node, const Estimates& est, AdgSnapshot& g,
                         std::span<const int> preds, std::vector<int>& out,
                         IdBuffers& ids, long level, const ExpandLimits& lim,
                         int est_depth) {
  Expander e(est, g, ids, lim);
  e.expand_dac(node, preds, out, level, e.estimated_depth(node, est_depth), 0,
               est_depth);
}

void expand_dac_body(const DacNode& node, const Estimates& est, AdgSnapshot& g,
                     std::span<const int> preds, std::vector<int>& out,
                     IdBuffers& ids, long level, bool divided,
                     const ExpandLimits& lim, int est_depth) {
  Expander e(est, g, ids, lim);
  e.dac_body(node, preds, out, level, e.estimated_depth(node, est_depth), divided, 0,
             est_depth);
}

int add_pending_muscle(AdgSnapshot& g, const Estimates& est, const Muscle& m,
                       std::span<const int> preds, int est_depth) {
  const auto t = est.t(m.id(), est_depth);
  return g.add(make_pending(m.id(), m.name(), t.value_or(0.0), {}, t.has_value()),
               preds);
}

}  // namespace askel
