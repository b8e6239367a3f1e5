// Tests for adg/expand: expected-future expansion of skeleton trees.

#include <gtest/gtest.h>

#include "adg/best_effort.hpp"
#include "adg/expand.hpp"
#include "skel/typed.hpp"

namespace askel {
namespace {

struct Muscles {
  SplitM<int, int> fs = split_muscle<int, int>("fs", [](int) {
    return std::vector<int>{};
  });
  ExecuteM<int, int> fe = execute_muscle<int, int>("fe", [](int x) { return x; });
  MergeM<int, int> fm = merge_muscle<int, int>("fm", [](std::vector<int>) { return 0; });
  CondM<int> fc = condition_muscle<int>("fc", [](const int&) { return false; });
};

Estimates full_estimates(const Muscles& m, double card = 3.0) {
  Estimates est;
  est.set(m.fs.m->id(), {10.0, card});
  est.set(m.fe.m->id(), {15.0, std::nullopt});
  est.set(m.fm.m->id(), {5.0, std::nullopt});
  est.set(m.fc.m->id(), {1.0, 2.0});
  return est;
}

/// expand_expected from no preds at the root depth; returns the terminals.
std::vector<int> expand_terminals(const SkelNode& node, const Estimates& est,
                                  AdgSnapshot& g, const ExpandLimits& lim = {}) {
  IdBuffers ids;
  std::vector<int> out;
  expand_expected(node, est, g, {}, out, ids, lim, /*est_depth=*/0);
  return out;
}

TEST(Expand, SeqIsOneActivity) {
  Muscles m;
  AdgSnapshot g;
  const auto terminals = expand_terminals(*Seq(m.fe).node(), full_estimates(m), g);
  ASSERT_EQ(terminals.size(), 1u);
  EXPECT_EQ(g.size(), 1u);
  EXPECT_DOUBLE_EQ(g.activities[0].est_duration, 15.0);
  EXPECT_TRUE(g.complete_estimates);
}

TEST(Expand, SeqWithoutEstimateFlagsIncomplete) {
  Muscles m;
  AdgSnapshot g;
  expand_terminals(*Seq(m.fe).node(), Estimates{}, g);
  EXPECT_FALSE(g.complete_estimates);
  EXPECT_DOUBLE_EQ(g.activities[0].est_duration, 0.0);
}

TEST(Expand, MapUsesCardinalityEstimate) {
  Muscles m;
  AdgSnapshot g;
  const auto terminals =
      expand_terminals(*Map(m.fs, Seq(m.fe), m.fm).node(), full_estimates(m, 3.0), g);
  // split + 3 fe + merge
  EXPECT_EQ(g.size(), 5u);
  ASSERT_EQ(terminals.size(), 1u);
  // Terminal is the merge; its preds are the three fe.
  const Activity& merge = g.activities[terminals[0]];
  EXPECT_EQ(merge.preds.size(), 3u);
  // Every fe depends on the split.
  for (const int p : merge.preds) {
    EXPECT_EQ(g.activities[p].preds, std::vector<int>{0});
  }
}

TEST(Expand, NestedMapsMatchPaperStructure) {
  Muscles m;
  AdgSnapshot g;
  auto skel = Map(m.fs, Map(m.fs, Seq(m.fe), m.fm), m.fm);
  expand_terminals(*skel.node(), full_estimates(m, 3.0), g);
  // outer split + 3×(split + 3 fe + merge) + outer merge = 1 + 15 + 1.
  EXPECT_EQ(g.size(), 17u);
  // Best-effort from scratch: 10 + 10 + 15 + 5 + 5 = 45.
  EXPECT_DOUBLE_EQ(best_effort(g).wct, 45.0);
}

TEST(Expand, MapWithoutCardinalityFallsBackToOneAndFlags) {
  Muscles m;
  Estimates est = full_estimates(m);
  est.set(m.fs.m->id(), {10.0, std::nullopt});  // no |fs|
  AdgSnapshot g;
  expand_terminals(*Map(m.fs, Seq(m.fe), m.fm).node(), est, g);
  EXPECT_EQ(g.size(), 3u);  // split + 1 fe + merge
  EXPECT_FALSE(g.complete_estimates);
}

TEST(Expand, PipeChainsStages) {
  Muscles m;
  AdgSnapshot g;
  auto skel = Pipe(Seq(m.fe), Seq(m.fe));
  const auto terminals = expand_terminals(*skel.node(), full_estimates(m), g);
  EXPECT_EQ(g.size(), 2u);
  EXPECT_EQ(g.activities[1].preds, std::vector<int>{0});
  EXPECT_EQ(terminals, std::vector<int>{1});
}

TEST(Expand, FarmIsTransparent) {
  Muscles m;
  AdgSnapshot g;
  expand_terminals(*Farm(Seq(m.fe)).node(), full_estimates(m), g);
  EXPECT_EQ(g.size(), 1u);
}

TEST(Expand, WhileUsesConditionCardinality) {
  Muscles m;
  AdgSnapshot g;
  auto skel = While(m.fc, Seq(m.fe));
  expand_terminals(*skel.node(), full_estimates(m), g);  // |fc| = 2
  // cond, body, cond, body, final cond = 5 activities.
  EXPECT_EQ(g.size(), 5u);
  // Chain: total best effort = 1 + 15 + 1 + 15 + 1 = 33.
  EXPECT_DOUBLE_EQ(best_effort(g).wct, 33.0);
}

TEST(Expand, ForChainsNBodies) {
  Muscles m;
  AdgSnapshot g;
  expand_terminals(*For(4, Seq(m.fe)).node(), full_estimates(m), g);
  EXPECT_EQ(g.size(), 4u);
  EXPECT_DOUBLE_EQ(best_effort(g).wct, 60.0);
}

TEST(Expand, IfExpandsConditionPlusTrueBranch) {
  Muscles m;
  auto heavy = Seq(m.fe);
  auto light = Seq(execute_muscle<int, int>("other", [](int x) { return x; }));
  AdgSnapshot g;
  expand_terminals(*If(m.fc, heavy, light).node(), full_estimates(m), g);
  EXPECT_EQ(g.size(), 2u);  // cond + true branch (documented deviation)
  EXPECT_DOUBLE_EQ(g.activities[1].est_duration, 15.0);
}

TEST(Expand, ForkCyclesBranches) {
  Muscles m;
  auto b0 = Seq(m.fe);
  auto b1 = Seq(execute_muscle<int, int>("fe2", [](int x) { return x; }));
  AdgSnapshot g;
  Estimates est = full_estimates(m, 4.0);  // |fs| = 4 over 2 branches
  expand_terminals(*Fork(m.fs, {b0, b1}, m.fm).node(), est, g);
  EXPECT_EQ(g.size(), 6u);  // split + 4 elements + merge
}

TEST(Expand, DacDepthZeroIsCondPlusLeaf) {
  Muscles m;
  Estimates est = full_estimates(m);
  est.set(m.fc.m->id(), {1.0, 0.0});  // recursion depth 0
  AdgSnapshot g;
  expand_terminals(*DaC(m.fc, m.fs, Seq(m.fe), m.fm).node(), est, g);
  EXPECT_EQ(g.size(), 2u);  // cond + leaf fe
}

TEST(Expand, DacDepthTwoBranchingTwoCounts) {
  Muscles m;
  Estimates est = full_estimates(m, 2.0);  // |fs| = 2
  est.set(m.fc.m->id(), {1.0, 2.0});       // depth 2
  AdgSnapshot g;
  expand_terminals(*DaC(m.fc, m.fs, Seq(m.fe), m.fm).node(), est, g);
  // level0: cond+split+merge, 2×level1 (cond+split+merge), 4×level2 (cond+leaf)
  // = 3 + 2*3 + 4*2 = 17.
  EXPECT_EQ(g.size(), 17u);
}

TEST(Expand, DacBodyVariantSkipsTheCondition) {
  Muscles m;
  Estimates est = full_estimates(m);
  est.set(m.fc.m->id(), {1.0, 0.0});
  AdgSnapshot g;
  const auto skel = DaC(m.fc, m.fs, Seq(m.fe), m.fm);  // keep the tree alive
  const auto& dac = static_cast<const DacNode&>(*skel.node());
  IdBuffers ids;
  std::vector<int> out;
  expand_dac_body(dac, est, g, {}, out, ids, /*level=*/0, /*divided=*/false, {},
                  /*est_depth=*/0);
  EXPECT_EQ(g.size(), 1u);  // only the leaf
}

TEST(Expand, ExpectedDacAtDeepLevelIsLeafOnly) {
  Muscles m;
  Estimates est = full_estimates(m, 2.0);
  est.set(m.fc.m->id(), {1.0, 1.0});  // depth 1
  AdgSnapshot g;
  const auto skel = DaC(m.fc, m.fs, Seq(m.fe), m.fm);  // keep the tree alive
  const auto& dac = static_cast<const DacNode&>(*skel.node());
  // At level 1 >= depth 1: cond + leaf.
  IdBuffers ids;
  std::vector<int> out;
  expand_expected_dac(dac, est, g, {}, out, ids, /*level=*/1, {}, /*est_depth=*/0);
  EXPECT_EQ(g.size(), 2u);
}

TEST(Expand, TruncationGuardStopsExplosion) {
  Muscles m;
  Estimates est;
  est.set(m.fs.m->id(), {1.0, 10.0});
  est.set(m.fe.m->id(), {1.0, std::nullopt});
  est.set(m.fm.m->id(), {1.0, std::nullopt});
  est.set(m.fc.m->id(), {1.0, 10.0});  // depth 10, branching 10 → 10^10 nodes
  AdgSnapshot g;
  ExpandLimits lim;
  lim.max_activities = 500;
  expand_terminals(*DaC(m.fc, m.fs, Seq(m.fe), m.fm).node(), est, g, lim);
  EXPECT_TRUE(g.truncated);
  EXPECT_LE(g.size(), 520u);  // cap plus the in-flight frame finishing up
}

TEST(Expand, RoundedCardinalityClampsNegativeToZero) {
  Estimates est;
  est.set(1, {std::nullopt, -2.0});
  bool known = false;
  EXPECT_EQ(rounded_cardinality(est, 1, 9, &known), 0);
  EXPECT_TRUE(known);
  EXPECT_EQ(rounded_cardinality(est, 2, 9, &known), 9);
  EXPECT_FALSE(known);
}

TEST(Expand, AddPendingMuscleUsesEstimate) {
  Muscles m;
  AdgSnapshot g;
  Estimates est = full_estimates(m);
  const int id = add_pending_muscle(g, est, *m.fe.m, {});
  EXPECT_DOUBLE_EQ(g.activities[id].est_duration, 15.0);
  EXPECT_TRUE(g.activities[id].has_estimate);
}

}  // namespace
}  // namespace askel
