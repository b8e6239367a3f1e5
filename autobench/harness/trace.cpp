#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace autobench {

namespace {

/// Spans kept per traced window; past it recording stops (the window's
/// aggregates then cover a shorter stretch, which capped() reports).
constexpr long kSpanCap = 1'500'000;

struct ThreadBuf {
  std::vector<Span> spans;
  std::vector<std::uint64_t> stack;
  std::uint16_t index = 0;
  std::uint64_t next_local = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_capped{false};
std::atomic<long> g_count{0};
std::atomic<std::uint64_t> g_run_span{0};
std::atomic<std::uint32_t> g_run{0};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // guarded by g_mu

ThreadBuf& local_buf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    buf = g_bufs.back().get();
    buf->index = static_cast<std::uint16_t>(g_bufs.size());
    buf->spans.reserve(4096);
  }
  return *buf;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

bool reserve_slot() {
  if (!g_enabled.load(std::memory_order_relaxed)) return false;
  if (g_count.fetch_add(1, std::memory_order_relaxed) >= kSpanCap) {
    g_enabled.store(false, std::memory_order_relaxed);
    g_capped.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

}  // namespace

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kRun: return "harness.run";
    case SpanKind::kMuscle: return "skel.muscle";
    case SpanKind::kDispatch: return "events.dispatch";
    case SpanKind::kIngest: return "sm.ingest";
    case SpanKind::kCtlEvent: return "autonomic.on_event";
    case SpanKind::kAdgSnapshot: return "adg.snapshot";
    case SpanKind::kEstSnapshot: return "est.snapshot";
    case SpanKind::kSubmit: return "runtime.submit";
    case SpanKind::kQueueWait: return "runtime.queue_wait";
    case SpanKind::kRecordLatency: return "autonomic.record_latency";
    case SpanKind::kArbitrate: return "autonomic.arbitrate";
    case SpanKind::kLeaseOpen: return "runtime.remote.task_begin";
    case SpanKind::kLeaseClose: return "runtime.remote.task_end";
    case SpanKind::kNamedCall: return "runtime.remote.call_named";
    case SpanKind::kCount: break;
  }
  return "?";
}

namespace trace {

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
bool capped() { return g_capped.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<Span> collect() {
  std::lock_guard lock(g_mu);
  std::vector<Span> out;
  for (const auto& b : g_bufs) out.insert(out.end(), b->spans.begin(), b->spans.end());
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return out;
}

void clear() {
  std::lock_guard lock(g_mu);
  for (const auto& b : g_bufs) b->spans.clear();
  g_count.store(0);
  g_capped.store(false);
}

}  // namespace trace

Scope::Scope(SpanKind kind) {
  if (!reserve_slot()) return;
  ThreadBuf& b = local_buf();
  active_ = true;
  span_.kind = kind;
  span_.id = (static_cast<std::uint64_t>(b.index) << 40) | ++b.next_local;
  span_.thread = b.index;
  if (kind == SpanKind::kRun) {
    span_.parent = 0;
    span_.run = g_run.fetch_add(1, std::memory_order_relaxed) + 1;
    g_run_span.store(span_.id, std::memory_order_relaxed);
  } else {
    span_.parent = b.stack.empty() ? g_run_span.load(std::memory_order_relaxed)
                                   : b.stack.back();
    span_.run = g_run.load(std::memory_order_relaxed);
  }
  b.stack.push_back(span_.id);
  span_.cpu_ns = thread_cpu_ns();
  span_.start_ns = trace::now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = trace::now_ns();
  span_.cpu_ns = thread_cpu_ns() - span_.cpu_ns;
  ThreadBuf& b = local_buf();
  b.stack.pop_back();
  b.spans.push_back(span_);
}

void record_interval(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns) {
  if (!reserve_slot()) return;
  ThreadBuf& b = local_buf();
  Span s;
  s.kind = kind;
  s.id = (static_cast<std::uint64_t>(b.index) << 40) | ++b.next_local;
  s.thread = b.index;
  s.parent = g_run_span.load(std::memory_order_relaxed);
  s.run = g_run.load(std::memory_order_relaxed);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  b.spans.push_back(s);
}

TraceSummary summarize(const std::vector<Span>& spans) {
  TraceSummary out;
  out.spans = static_cast<long>(spans.size());
  std::unordered_map<std::uint64_t, const Span*> by_id;
  by_id.reserve(spans.size());
  for (const Span& s : spans) by_id.emplace(s.id, &s);
  std::unordered_map<std::uint64_t, std::int64_t> nested_ns;  // same-thread child time
  for (const Span& s : spans) {
    if (s.parent == 0) {
      if (s.kind != SpanKind::kRun) ++out.orphans;
      continue;
    }
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) {
      ++out.orphans;
      continue;
    }
    const Span& p = *it->second;
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) ++out.escapes;
    if (s.thread == p.thread) nested_ns[p.id] += s.end_ns - s.start_ns;
  }
  for (const Span& s : spans) {
    TraceSummary::Kind& k = out.kinds[static_cast<std::size_t>(s.kind)];
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++k.count;
    k.wall_s += static_cast<double>(dur) * 1e-9;
    k.cpu_s += static_cast<double>(s.cpu_ns) * 1e-9;
    k.dur_ns.push_back(static_cast<double>(dur));
    const auto it = nested_ns.find(s.id);
    const std::int64_t self = dur - (it == nested_ns.end() ? 0 : it->second);
    if (self < 0) ++out.negative_self;
    k.self_s += static_cast<double>(self) * 1e-9;
  }
  return out;
}

bool dump_spans(const std::string& path, const std::string& header,
                const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"run\":%u,"
                 "\"thread\":%u,\"start_ns\":%lld,\"end_ns\":%lld,\"cpu_ns\":%lld,"
                 "\"flag\":%u}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), span_name(s.kind), s.run,
                 static_cast<unsigned>(s.thread), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<long long>(s.cpu_ns),
                 static_cast<unsigned>(s.flag));
  }
  return std::fclose(f) == 0;
}

}  // namespace autobench
