// Self-test of the benchmark harness's own arithmetic: percentiles and the
// ">= 10 samples beyond" rule, span and operator self time when children
// run on other threads, and per-op ratios with zero denominators.
// Exits non-zero on the first failed check:
//   .bench_build/perfbench/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "lib/record.h"
#include "lib/report.h"
#include "lib/spans.h"
#include "lib/stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(Percentile(v, 50) == 50);
  EXPECT(Percentile(v, 90) == 90);
  EXPECT(Percentile(v, 99) == 99);
  EXPECT(Percentile(v, 100) == 100);
  EXPECT(Percentile({}, 50) == 0);
  EXPECT(Percentile({7}, 99) == 7);
  // Order of the input does not matter.
  EXPECT(Percentile({3, 1, 2}, 50) == 2);

  EXPECT(SamplesBeyond(100, 90) == 10);
  EXPECT(SamplesBeyond(1000, 99) == 10);
  EXPECT(SamplesBeyond(999, 99) == 9);
  EXPECT(SamplesBeyond(0, 50) == 0);
  EXPECT(TailIsSupported(1000, 99));
  EXPECT(!TailIsSupported(999, 99));
  EXPECT(TailIsSupported(100, 90));
  EXPECT(!TailIsSupported(99, 90));
  EXPECT(HighestSupportedPercentile(19) == 0);
  EXPECT(HighestSupportedPercentile(20) == 50);
  EXPECT(HighestSupportedPercentile(100) == 90);
  EXPECT(HighestSupportedPercentile(999) == 90);
  EXPECT(HighestSupportedPercentile(1000) == 99);
  EXPECT(HighestSupportedPercentile(10000) == 99.9);
}

void TestRatios() {
  EXPECT(SafeRatio(5, 0) == 0);
  EXPECT(SafeRatio(0, 0) == 0);
  EXPECT(SafeRatio(1, 4) == 0.25);

  // A phase with no ops reports finite zeros, never NaN.
  Aggregate empty;
  std::vector<Metric> extras;
  for (const Metric& m : EndToEndMetrics(empty, 1.5, 3, 10, &extras)) {
    EXPECT(std::isfinite(m.value));
  }
  for (const Metric& m : extras) EXPECT(std::isfinite(m.value));
  for (const Metric& m : PerLayerMetrics(empty, {}, "host", 0)) {
    EXPECT(std::isfinite(m.value));
    EXPECT(m.value == 0);
  }
  // Per-op ratios divide by ops; per-row ratios by rows, zero rows -> 0.
  Aggregate a;
  OpRecord rec;
  rec.ok = rec.correct = true;
  rec.wall_ns = 2000000;
  rec.cpu_ns = 1000000;
  rec.link_bytes = 2048;
  rec.operators["sort"] = OperatorTotals{500, 0};
  rec.operators["scan"] = OperatorTotals{1000, 10};
  a.Add(rec);
  a.Add(rec);
  extras.clear();
  std::vector<Metric> e2e = EndToEndMetrics(a, 1, 1, 1, &extras);
  EXPECT(e2e[2].name == "throughput_ops" &&
         std::fabs(e2e[2].value - 500) < 1e-9);
  EXPECT(e2e[3].name == "cpu_ms_per_op" &&
         std::fabs(e2e[3].value - 1) < 1e-12);
  for (const Metric& m : extras) {
    if (m.name == "link_kb_per_op") EXPECT(m.value == 2);
    if (m.name == "error_rate") EXPECT(m.value == 0);
    EXPECT(m.name != "latency_p99_ms");  // 2 samples hold no p99.
    if (m.name == "latency_p90_samples_beyond") EXPECT(m.value == 0);
  }
  for (const Metric& m : PerLayerMetrics(a, {}, "host", 0)) {
    if (m.name == "executor.self_ns_per_row.sort") EXPECT(m.value == 0);
    if (m.name == "executor.self_ns_per_row.scan") EXPECT(m.value == 100);
    if (m.name == "executor.self_ms_per_op.scan") EXPECT(m.value == 0.001);
    if (m.name == "link.kb_per_op") EXPECT(m.value == 2);
  }
}

void TestSelfTime() {
  // Union of children, clipped to the parent.
  EXPECT(CoveredNs({0, 100}, {{10, 30}, {20, 50}, {90, 120}}) == 50);
  EXPECT(SpanSelfNs({0, 100}, {{10, 30}, {20, 50}, {90, 120}}) == 50);
  // Two children running at once on two worker threads cover their
  // interval once: self time is 20, not 100 - 160.
  EXPECT(SpanSelfNs({0, 100}, {{0, 80}, {0, 80}}) == 20);
  EXPECT(SpanSelfNs({0, 100}, {}) == 100);

  // Operator self time subtracts only same-thread children.
  EXPECT(OperatorSelfNs(100, {{60, false}, {80, true}}) == 40);
  EXPECT(OperatorSelfNs(100, {{80, true}, {90, true}}) == 100);
  EXPECT(OperatorSelfNs(50, {{80, false}}) == 0);

  // Spans of one op: a worker-thread fetch hangs off the engine.execute
  // span open on the op's thread when it started.
  std::vector<BenchSpan> spans = {
      {"op", "", 7, 1, 0, 100},
      {"core.execute", "", 7, 1, 10, 80},
      {"engine.execute", "host", 7, 1, 20, 60},
      {"connectors.fetch", "", 7, 2, 30, 40},
      {"engine.execute", "member0", 7, 2, 35, 10},
      {"engine.parse", "host", 8, 1, 200, 5},  // Another op.
  };
  std::map<std::string, int64_t> self = SelfNsByLayer(spans, "host");
  EXPECT(self["bench"] == 20);
  EXPECT(self["core"] == 20);
  EXPECT(self["executor"] == 20);
  EXPECT(self["connectors"] == 30);
  EXPECT(self["remote"] == 10);
  EXPECT(self["sql"] == 5);
}

void TestNames() {
  EXPECT(OpFromActivity("op-12") == 12);
  EXPECT(OpFromActivity("op-") == -1);
  EXPECT(OpFromActivity("host#3") == -1);
  EXPECT(OpFromActivity(OpActivityId(42).c_str()) == 42);
  EXPECT(OperatorKind("HashJoin(inner, keys:#1=#2)") == "hash_join");
  EXPECT(OperatorKind("TableScan(lineitem)") == "scan");
  EXPECT(OperatorKind("Exchange(gather, 2->1)") == "exchange");
  EXPECT(OperatorKind("Filter[#3 < 5]") == "filter");
  EXPECT(OperatorKind("RemoteRange(t.idx @rsrv)") == "remote_scan");
  EXPECT(OperatorKind("HashAggregate") == "hash_aggregate");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestRatios();
  perfbench::TestSelfTime();
  perfbench::TestNames();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d selftest checks failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
