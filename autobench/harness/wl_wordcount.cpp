// wordcount: the paper's §5 case. Two nested maps (5 chunks x 6 sub-chunks,
// ~42 activities) over a seeded synthetic tweet corpus, sleep-calibrated to
// the paper's 12.5 s profile at scale 0.15, armed with the Figure 5 goal
// (9.5 paper-seconds) at max LP 4, cold estimates every run. Analysis is
// cheap here; lp_s shows whether a change altered the controller's choices.

#include <memory>
#include <string>

#include "rig.hpp"
#include "workload/wordcount.hpp"

namespace autobench {

namespace {

constexpr int kMaxLp = 4;
constexpr double kScale = 0.15;
constexpr double kPaperGoal = 9.5;           // paper-seconds (Figure 5)
constexpr double kPaperMinInterval = 0.1;    // paper-seconds between evaluations
constexpr int kFixedRuns = 4;                // peak RSS is read after this many runs

struct Wordcount {
  askel::TweetDoc doc;
  askel::Counts expected;
  askel::Skel<askel::TweetDoc, askel::CountsPart> skel{nullptr};
};

/// The library's wordcount skeleton with each shared muscle wrapped once
/// (shared fs/fm stay shared across both nesting levels).
askel::Skel<askel::TweetDoc, askel::CountsPart> traced_wordcount(
    const askel::WordcountSkeleton& ws) {
  using askel::CountsPart;
  using askel::TweetDoc;
  const askel::SplitM<TweetDoc, TweetDoc> fs{traced_split(ws.fs)};
  const askel::ExecuteM<TweetDoc, CountsPart> fe{traced_execute(ws.fe)};
  const askel::MergeM<CountsPart, CountsPart> fm{traced_merge(ws.fm)};
  return askel::Map(fs, askel::Map(fs, askel::Seq(fe), fm), fm);
}

}  // namespace

void run_wordcount(const Options& opt, Result& res) {
  askel::PaperTimings timings;
  timings.scale = opt.short_mode ? 0.03 : kScale;
  askel::TweetCorpusConfig corpus;
  corpus.seed = opt.seed;
  if (opt.short_mode) corpus.num_tweets = 2000;
  const double goal = kPaperGoal * timings.scale;
  askel::ControllerConfig ccfg;
  ccfg.min_interval = kPaperMinInterval * timings.scale;
  res.context.push_back("tweets=" + std::to_string(corpus.num_tweets) +
                        " scale=" + std::to_string(timings.scale) +
                        " goal_s=" + std::to_string(goal) + " max_lp=4 cold estimates");

  // Set-up: generate the corpus, build the skeleton and the runtime, then
  // one warm-up run (every measured run restarts cold regardless).
  std::unique_ptr<Wordcount> wc;
  std::unique_ptr<AutonomicRig> rig;
  askel::Counts warm;  // the last warm-up run's output, checked below
  auto set_up = [&] {
    rig.reset();
    wc = std::make_unique<Wordcount>();
    wc->doc.tweets = std::make_shared<const std::vector<std::string>>(
        askel::generate_tweets(corpus));
    wc->doc.end = wc->doc.tweets->size();
    wc->skel = traced_wordcount(askel::make_wordcount_skeleton(timings, opt.seed));
    rig = std::make_unique<AutonomicRig>(1, kMaxLp, ccfg);
    rig->run(res, wc->skel, wc->doc, goal, [&](const askel::CountsPart& got) {
      warm = got.counts;
      return std::string();
    });
  };
  std::vector<double> setups;
  for (int k = 0; k < (opt.trace ? 1 : 3); ++k) {
    const double t0 = wall_now();
    set_up();
    setups.push_back(wall_now() - t0);
  }
  // The reference count is the harness's, not part of set-up.
  wc->expected = askel::count_tokens(wc->doc);
  res.check(warm == wc->expected, "wordcount: warm-up run counts differ from count_tokens");

  auto check = [&](const askel::CountsPart& got) {
    if (got.counts == wc->expected) return std::string();
    return "wordcount: " + std::to_string(got.counts.size()) + " distinct tokens vs " +
           std::to_string(wc->expected.size()) + " expected, or counts differ";
  };
  long met = 0;
  auto autonomic_run = [&] {
    rig->cold_start();
    bool ok = false;
    const RunRecord r = rig->run(res, wc->skel, wc->doc, goal, check, &ok);
    met += ok;
    return r;
  };

  if (!opt.trace) {
    const RunSet set = run_for(opt.seconds, kFixedRuns, autonomic_run);
    add_batch_metrics(res, setups, set, "run");
    res.context.push_back("goal_met=" + std::to_string(met) + "/" +
                          std::to_string(set.runs.size()));
    return;
  }

  const RunSet plain = run_for(opt.seconds * 0.4, kFixedRuns, autonomic_run, &rig->trackers());
  const long plain_met = met;
  rig->listen(AutonomicRig::Listeners::kNone);
  const RunSet fixed = run_for(opt.seconds * 0.2, 1, [&] {
    rig->pool().set_target_lp(kMaxLp);
    return rig->run(res, wc->skel, wc->doc, 0.0, check);
  });
  rig->listen(AutonomicRig::Listeners::kTraced);
  rig->reset_counters();
  trace::clear();
  trace::enable(true);
  const RunSet traced = run_for(opt.seconds * 0.4, 1, autonomic_run);
  trace::enable(false);
  res.spans = trace::collect();
  rig->listen(AutonomicRig::Listeners::kPlain);

  add_layer_metrics(res, res.spans, wct_layer_inputs(*rig, plain, fixed, traced, plain_met));
  res.context.push_back("untraced_runs=" + std::to_string(plain.runs.size()) +
                        " fixed_lp_runs=" + std::to_string(fixed.runs.size()) +
                        " traced_runs=" + std::to_string(traced.runs.size()));
}

}  // namespace autobench
