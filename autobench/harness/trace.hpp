#pragma once
// In-memory span recorder for the traced run.
//
// A span is one call into a layer, timed from the benchmark's own files: the
// harness wraps bus listeners, the arbitration policy, the worker backend and
// the call sites of submit / record_latency / call_named. Spans nest through
// a per-thread stack; a span opened with an empty stack takes the current
// run span as its parent, so every span of one run shares its root. Spans
// stay in per-thread buffers (no locks on the recording path) and are
// collected once the runtime is idle.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace autobench {

enum class SpanKind : std::uint8_t {
  kRun,            // harness: one skeleton run or one stream window
  kMuscle,         // skel: a benchmark muscle body
  kDispatch,       // events: the harness listener's whole share of a dispatch
  kIngest,         // sm: TrackerSet::on_event
  kCtlEvent,       // autonomic: AutonomicController::on_event
  kAdgSnapshot,    // adg: TrackerSet::snapshot at an evaluation point
  kEstSnapshot,    // est: EstimateRegistry::snapshot at an evaluation point
  kSubmit,         // runtime: pool.submit at the stream generator
  kQueueWait,      // runtime: a request's due time to its start on a worker
  kRecordLatency,  // autonomic: AutonomicController::record_latency
  kArbitrate,      // autonomic: ArbitrationPolicy::arbitrate
  kLeaseOpen,      // runtime.remote: WorkerBackend::task_begin
  kLeaseClose,     // runtime.remote: WorkerBackend::task_end
  kNamedCall,      // runtime.remote: RemoteWorkerBackend::call_named
  kCount
};
inline constexpr int kSpanKinds = static_cast<int>(SpanKind::kCount);
const char* span_name(SpanKind k);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = none (only run spans)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;   // thread CPU inside the span (0 if cross-thread)
  std::uint32_t run = 0;
  std::uint16_t thread = 0;
  SpanKind kind = SpanKind::kRun;
  std::uint8_t flag = 0;     // kCtlEvent: 1 = this call ran an evaluation
};

namespace trace {
/// Start or stop recording. Spans already open when recording stops still
/// close and are kept.
void enable(bool on);
bool enabled();
/// Spans recorded since the last clear() (all threads). Call only while no
/// thread is inside a recorded span.
std::vector<Span> collect();
void clear();
/// True if the span cap was hit (recording stopped early).
bool capped();
std::int64_t now_ns();
}  // namespace trace

/// RAII span on the calling thread; inert while recording is off.
class Scope {
 public:
  explicit Scope(SpanKind kind);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void set_flag(std::uint8_t f) { span_.flag = f; }

 private:
  Span span_;
  bool active_ = false;
};

/// Record an interval measured across threads (no CPU reading), parented to
/// the current run span.
void record_interval(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns);

/// Per-kind aggregates of a span set, and its nesting check. A span's self
/// time is its duration minus the durations of its children on the same
/// thread (children on other threads ran beside it, not inside its time).
/// Nesting holds when every parent was recorded, only run spans lack one,
/// every child lies inside its parent's interval, and no self time is below
/// zero.
struct TraceSummary {
  struct Kind {
    long count = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double self_s = 0.0;
    std::vector<double> dur_ns;  // per-span durations
  };
  std::array<Kind, kSpanKinds> kinds;
  long spans = 0;
  long orphans = 0;        // parent never recorded, or a non-run span without one
  long escapes = 0;        // children starting before or ending after their parent
  long negative_self = 0;  // same-thread children longer in sum than their parent
  bool nested() const { return orphans == 0 && escapes == 0 && negative_self == 0; }
};
TraceSummary summarize(const std::vector<Span>& spans);

/// Write spans as JSON lines (first line: `header`, a JSON object).
bool dump_spans(const std::string& path, const std::string& header,
                const std::vector<Span>& spans);

}  // namespace autobench
