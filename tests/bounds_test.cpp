// Tests for adg/bounds: remaining work, Graham-style bounds, and their
// sandwich relation around the greedy list schedule.

#include <gtest/gtest.h>

#include <random>

#include "adg/bounds.hpp"
#include "adg/limited_lp.hpp"
#include "workload/paper_example.hpp"

namespace askel {
namespace {

TEST(Bounds, RemainingWorkCountsPendingAndRunningTails) {
  AdgSnapshot g;
  g.now = 10.0;
  g.add(make_done(0, "d", 0.0, 8.0, {}));            // contributes nothing
  g.add(make_running(0, "r", 6.0, 10.0, {}));        // 6 seconds left (ends 16)
  g.add(make_running(0, "r2", 2.0, 3.0, {}));        // overdue: 0 left
  g.add(make_pending(0, "p", 4.0, {}));
  EXPECT_DOUBLE_EQ(remaining_work(g), 10.0);
}

TEST(Bounds, WorkBoundDividesByLp) {
  AdgSnapshot g;
  g.now = 0.0;
  for (int k = 0; k < 8; ++k) g.add(make_pending(0, "p", 1.0, {}));
  EXPECT_DOUBLE_EQ(work_bound(g, 1), 8.0);
  EXPECT_DOUBLE_EQ(work_bound(g, 4), 2.0);
  EXPECT_DOUBLE_EQ(work_bound(g, 100), 0.08);
}

TEST(Bounds, GrahamBoundIsMaxOfCriticalPathAndWork) {
  AdgSnapshot g;
  g.now = 0.0;
  int prev = g.add(make_pending(0, "a", 3.0, {}));
  g.add(make_pending(0, "b", 3.0, {prev}));
  for (int k = 0; k < 4; ++k) g.add(make_pending(0, "c", 1.0, {}));
  // CP = 6; W = 10. lp=1: work bound 10 dominates; lp=8: CP dominates.
  EXPECT_DOUBLE_EQ(graham_bound(g, 1), 10.0);
  EXPECT_DOUBLE_EQ(graham_bound(g, 8), 6.0);
}

TEST(Bounds, ExactOnThePaperExample) {
  PaperExampleReplay r;
  r.replay_until(70.0);
  const AdgSnapshot g = r.snapshot(70.0);
  // Lower bound never exceeds the list schedule; upper never undercuts it.
  const double list2 = limited_lp(g, 2).wct;
  EXPECT_LE(graham_bound(g, 2), list2);
  EXPECT_GE(graham_upper(g, 2), list2);
  // With ample LP both converge to the critical path (best effort = 100).
  EXPECT_DOUBLE_EQ(graham_bound(g, 24), 100.0);
}

TEST(Bounds, ListScheduleAndGrahamBoundAgreeOnIndependentTasks) {
  AdgSnapshot g;
  g.now = 0.0;
  for (int k = 0; k < 4; ++k) g.add(make_pending(0, "p", 1.0, {}));
  EXPECT_DOUBLE_EQ(limited_lp(g, 2).wct, 2.0);
  EXPECT_DOUBLE_EQ(graham_bound(g, 2), 2.0);
}

class BoundsSandwich : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundsSandwich, GrahamSandwichesGreedyListScheduling) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> dur(0.1, 5.0);
  std::uniform_int_distribution<int> npreds(0, 3);
  AdgSnapshot g;
  g.now = 0.0;
  for (int k = 0; k < 24; ++k) {
    std::vector<int> preds;
    if (k > 0) {
      std::uniform_int_distribution<int> pick(0, k - 1);
      for (int j = npreds(rng); j > 0; --j) preds.push_back(pick(rng));
      std::sort(preds.begin(), preds.end());
      preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
    }
    g.add(make_pending(0, "x", dur(rng), std::move(preds)));
  }
  for (const int lp : {1, 2, 3, 5, 8}) {
    const double list = limited_lp(g, lp).wct;
    EXPECT_LE(graham_bound(g, lp), list + 1e-9) << "lp=" << lp;
    EXPECT_GE(graham_upper(g, lp) + 1e-9, list) << "lp=" << lp;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsSandwich,
                         ::testing::Values(3, 7, 11, 19, 23, 42, 77, 101));

}  // namespace
}  // namespace askel
