// Self-test of the span nesting check: hand-built span sets, one well
// nested and one per way of breaking it, each must be judged as expected.
// Exits non-zero on any mismatch.

#include <cstdio>
#include <vector>

#include "trace.hpp"

namespace {

using autobench::Span;
using autobench::SpanKind;
using autobench::TraceSummary;

Span span(std::uint64_t id, std::uint64_t parent, std::int64_t start, std::int64_t end,
          std::uint16_t thread, SpanKind kind = SpanKind::kMuscle) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.thread = thread;
  s.kind = kind;
  return s;
}

int failures = 0;

void expect(const char* what, bool ok) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using autobench::summarize;
  // A run on thread 1 with one nested call, and a long child on thread 2
  // that overlaps the nested call: parallel, so it takes no self time.
  const std::vector<Span> good = {span(1, 0, 0, 100, 1, SpanKind::kRun),
                                  span(2, 1, 10, 30, 1), span(3, 1, 5, 95, 2),
                                  span(4, 3, 20, 40, 2)};
  const TraceSummary g = summarize(good);
  expect("well nested set passes", g.nested());
  expect("run self time excludes only same-thread children",
         g.kinds[static_cast<int>(SpanKind::kRun)].self_s * 1e9 > 79.5 &&
             g.kinds[static_cast<int>(SpanKind::kRun)].self_s * 1e9 < 80.5);

  // A child on another thread that ends after its run: an escape.
  const TraceSummary late = summarize(
      {span(1, 0, 0, 100, 1, SpanKind::kRun), span(2, 1, 90, 120, 2)});
  expect("child ending after its parent is an escape", late.escapes == 1 && !late.nested());

  // A child that starts before its parent (queue wait before the run).
  const TraceSummary early = summarize(
      {span(1, 0, 50, 100, 1, SpanKind::kRun), span(2, 1, 40, 60, 2)});
  expect("child starting before its parent is an escape", early.escapes == 1);

  // Two same-thread children, each inside the parent, overlapping each
  // other: together longer than the parent, so self time goes negative.
  const TraceSummary overlap = summarize({span(1, 0, 0, 100, 1, SpanKind::kRun),
                                          span(2, 1, 0, 60, 1), span(3, 1, 40, 100, 1)});
  expect("overlapping same-thread children give negative self time",
         overlap.negative_self == 1 && overlap.escapes == 0);

  // A parent that was never recorded, and a non-run span with no parent.
  const TraceSummary orphan = summarize(
      {span(1, 0, 0, 100, 1, SpanKind::kRun), span(2, 999, 10, 20, 1), span(3, 0, 10, 20, 2)});
  expect("missing parents are orphans", orphan.orphans == 2);

  std::printf("%s\n", failures == 0 ? "trace_test: ok" : "trace_test: FAILED");
  return failures == 0 ? 0 : 1;
}
