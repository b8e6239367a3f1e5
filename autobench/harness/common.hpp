#pragma once
// Shared pieces of the autobench harness: command-line options, the result
// record every workload fills, sample statistics and process readings.

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace autobench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and short windows: the benchmark's own tests use this.
  bool short_mode = false;
};

/// One reported number. `n` is the sample count behind it; `note` says how
/// it was taken (e.g. "median of runs", "p71 (n=35)").
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long n = 0;
  std::string note;
};

/// What a workload hands back to main(): correctness accounting plus the
/// metrics of the mode it ran in.
struct Result {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> violations;  // every failed check, printed
  std::vector<Metric> metrics;
  /// Free-form per-workload context lines (goal, sizes, counts), printed.
  std::vector<std::string> context;
  /// Spans of the traced window (trace mode only).
  std::vector<Span> spans;

  void add(std::string name, double value, std::string unit, long n,
           std::string note = {});
  /// Record one failed operation or broken invariant. Never silent.
  void fail(const std::string& why);
  /// Count `attempted` operations of which the check `ok` is false for
  /// `bad`; every bad one is a failure with the given reason.
  void check(bool ok, const std::string& why);
};

// ---------------------------------------------------------------- stats ----

double median(std::vector<double> v);
/// Linear-interpolated quantile of an unsorted sample (q in [0,1]).
double quantile(std::vector<double> v, double q);

/// Tail reading the benchmark reports as "p99": the 0.99 quantile when at
/// least 10 samples lie beyond it, else the highest quantile that still has
/// 10 beyond it, else (fewer than 20 samples, so that quantile would sit
/// below the median) the maximum. `used_q` receives the quantile taken.
double supported_tail(std::vector<double> v, double& used_q);
std::string tail_note(double used_q, std::size_t n);

// ------------------------------------------------------------ readings ----

/// Monotonic wall clock, seconds.
double wall_now();
/// CPU time of the whole process / of the calling thread, seconds.
double process_cpu();
double thread_cpu();
/// Peak resident set size of the process (VmHWM), MiB.
double peak_rss_mb();

/// Fixed-work calibration: 4 threads each burn the same arithmetic loop;
/// returns sum of per-thread CPU over wall — about 4 on 4 free cores, about
/// 1 when co-tenants leave one.
double effective_cores();

// ------------------------------------------------------------ workloads ----

void run_wordcount(const Options& opt, Result& res);
void run_wide_map(const Options& opt, Result& res);
void run_slo_stream(const Options& opt, Result& res);
void run_remote_map(const Options& opt, Result& res);

/// SplitMix64 step: decorrelated per-item draws from one seed.
std::uint64_t mix64(std::uint64_t x);
/// Uniform double in [0, 1) from a hash of (seed, index).
double unit_draw(std::uint64_t seed, std::uint64_t index);

/// Fixed CPU work for a muscle: `k` dependent steps of a 64-bit LCG from
/// `x`. A fixed instruction count, so a workload whose muscles otherwise
/// sleep spends process CPU on work rather than mostly on wake-ups, whose
/// cost follows how busy the host is.
std::uint64_t lcg_steps(std::uint64_t x, std::uint64_t k);
/// The same result by jump-ahead in O(log k): the check for lcg_steps.
std::uint64_t lcg_jump(std::uint64_t x, std::uint64_t k);

/// One measured operation batch of a batch workload (one skeleton run).
struct RunRecord {
  double wall = 0.0;  // seconds
  double cpu = 0.0;   // process CPU seconds during the run
  double lp_s = 0.0;  // integral of the pool's target LP over the run
  long ops = 0;       // operations completed (runs or muscles)
};

/// Runs of a batch workload, plus the readings taken right after a fixed
/// number of them: state a long-lived runtime keeps grows with every run, so
/// it is read after the same work however many runs fit in the window.
struct RunSet {
  std::vector<RunRecord> runs;
  int fixed_runs = 0;
  double rss_mb = 0.0;        // VmHWM after run number fixed_runs
  long tracked_instances = 0; // TrackerSet size then (WCT workloads)
};

/// The gated end-to-end metrics of a batch workload: setup_s from the
/// repeated set-ups, wall/cpu/lp medians and run-latency p50/tail from the
/// runs, throughput per second of run wall, and the fixed-count peak RSS.
void add_batch_metrics(Result& res, const std::vector<double>& setups, const RunSet& set,
                       const char* op_name);

}  // namespace autobench
