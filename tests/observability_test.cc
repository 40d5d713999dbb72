// Observability suite: per-operator OperatorProfile trees (row counts
// consistent with the delivered result, including parallel Concat branches
// and prefetch producer threads), EXPLAIN ANALYZE estimated-vs-actual
// rendering, trace span well-formedness under fault/retry storms, and
// metrics registry semantics (snapshot determinism, reset, concurrency —
// the latter is the TSan target for the tracer/registry hot paths).

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "tests/test_util.h"

namespace dhqp {
namespace {

/// Collects every profile node (pre-order) into `out`.
void FlattenProfile(const OperatorProfile& p,
                    std::vector<const OperatorProfile*>* out) {
  out->push_back(&p);
  for (const auto& child : p.children) FlattenProfile(*child, out);
}

std::string ResultText(const QueryResult& result) {
  std::string text;
  if (result.rowset == nullptr) return text;
  for (const Row& row : result.rowset->rows()) {
    text += RowToString(row);
    text += "\n";
  }
  return text;
}

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    remote_ = AttachRemoteEngine(&host_, "rsrv");
    MustExecute(remote_.engine.get(),
                "CREATE TABLE items (id INT PRIMARY KEY, category INT, "
                "price INT)");
    std::string sql = "INSERT INTO items VALUES ";
    for (int i = 0; i < 2000; ++i) {
      if (i) sql += ",";
      sql += "(" + std::to_string(i) + "," + std::to_string(i % 5) + "," +
             std::to_string(i % 300) + ")";
    }
    MustExecute(remote_.engine.get(), sql);
    MustExecute(&host_,
                "CREATE TABLE categories (cid INT PRIMARY KEY, "
                "cname VARCHAR(20))");
    MustExecute(&host_,
                "INSERT INTO categories VALUES (0,'a'),(1,'b'),(2,'c'),"
                "(3,'d'),(4,'e')");
  }

  Engine host_;
  RemoteServer remote_;
};

// ---------------------------------------------------------------------------
// Operator profiles: row counts vs. the delivered result.
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, RootRowCountMatchesResultRows) {
  QueryResult r = MustExecute(
      &host_,
      "SELECT i.id, c.cname FROM rsrv.d.s.items i "
      "JOIN categories c ON i.category = c.cid WHERE i.price < 50");
  ASSERT_NE(r.rowset, nullptr);
  ASSERT_NE(r.profile, nullptr);
  EXPECT_EQ(r.profile->rows_out.load(),
            static_cast<int64_t>(r.rowset->rows().size()));
  EXPECT_GT(r.rowset->rows().size(), 0u);

  // Pre-order ids are dense 1..N, matching EXPLAIN's numbering.
  std::vector<const OperatorProfile*> nodes;
  FlattenProfile(*r.profile, &nodes);
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(nodes[i]->id, static_cast<int>(i) + 1);
    EXPECT_FALSE(nodes[i]->name.empty());
    EXPECT_EQ(nodes[i]->opens.load(), 1);
  }

  // The remote leg is attributed to the right link and actually talked.
  bool saw_remote = false;
  for (const OperatorProfile* p : nodes) {
    if (p->link.empty()) continue;
    saw_remote = true;
    EXPECT_EQ(p->link, "rsrv");
    EXPECT_GT(p->link_charges.messages.load(), 0);
    EXPECT_GT(p->link_charges.bytes.load(), 0);
  }
  EXPECT_TRUE(saw_remote);
}

TEST_F(ObservabilityTest, ParallelConcatWithPrefetchAttributesPerMember) {
  RemoteServer other = AttachRemoteEngine(&host_, "srvb");
  MustExecute(remote_.engine.get(),
              "CREATE TABLE part_a (id INT PRIMARY KEY, v INT)");
  MustExecute(other.engine.get(),
              "CREATE TABLE part_b (id INT PRIMARY KEY, v INT)");
  for (const char* stmt : {"a", "b"}) {
    Engine* eng = stmt[0] == 'a' ? remote_.engine.get() : other.engine.get();
    int lo = stmt[0] == 'a' ? 0 : 400;
    std::string sql =
        std::string("INSERT INTO part_") + stmt + " VALUES ";
    for (int i = lo; i < lo + 400; ++i) {
      if (i != lo) sql += ",";
      sql += "(" + std::to_string(i) + "," + std::to_string(i * 3) + ")";
    }
    MustExecute(eng, sql);
  }
  MustExecute(&host_,
              "CREATE VIEW both_parts AS "
              "SELECT * FROM rsrv.d.s.part_a UNION ALL "
              "SELECT * FROM srvb.d.s.part_b");

  // Defaults: concat_dop = 4 (parallel branches), prefetch on — member
  // traffic flows on producer threads and must still land on the right
  // member's profile via the thread-installed charge sink.
  QueryResult r = MustExecute(&host_, "SELECT id, v FROM both_parts");
  ASSERT_NE(r.rowset, nullptr);
  ASSERT_NE(r.profile, nullptr);
  EXPECT_EQ(r.rowset->rows().size(), 800u);
  EXPECT_EQ(r.profile->rows_out.load(), 800);

  std::vector<const OperatorProfile*> nodes;
  FlattenProfile(*r.profile, &nodes);
  int64_t rsrv_wire_rows = 0, srvb_wire_rows = 0;
  for (const OperatorProfile* p : nodes) {
    if (p->link == "rsrv") rsrv_wire_rows += p->link_charges.rows.load();
    if (p->link == "srvb") srvb_wire_rows += p->link_charges.rows.load();
  }
  EXPECT_EQ(rsrv_wire_rows, 400);
  EXPECT_EQ(srvb_wire_rows, 400);
}

// ---------------------------------------------------------------------------
// EXPLAIN / EXPLAIN ANALYZE rendering.
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, ExplainAnalyzeShowsEstimatedVsActual) {
  const std::string query =
      "SELECT i.id, c.cname FROM rsrv.d.s.items i "
      "JOIN categories c ON i.category = c.cid WHERE i.price < 50";

  QueryResult analyzed = MustExecute(&host_, "EXPLAIN ANALYZE " + query);
  ASSERT_NE(analyzed.rowset, nullptr);
  ASSERT_NE(analyzed.profile, nullptr);
  std::string plan = ResultText(analyzed);
  // Per-operator lines with ids, estimates vs. actuals and wall time.
  EXPECT_NE(plan.find("#1 "), std::string::npos) << plan;
  EXPECT_NE(plan.find("est_rows="), std::string::npos) << plan;
  EXPECT_NE(plan.find("act_rows="), std::string::npos) << plan;
  EXPECT_NE(plan.find("time_ms="), std::string::npos) << plan;
  // Remote traffic attributed to the link it used.
  EXPECT_NE(plan.find("link=rsrv"), std::string::npos) << plan;
  EXPECT_NE(plan.find("msgs="), std::string::npos) << plan;

  // Plain EXPLAIN carries the same operator ids plus estimates only — no
  // actuals (the statement is compiled, not run).
  QueryResult plain = MustExecute(&host_, "EXPLAIN " + query);
  ASSERT_NE(plain.rowset, nullptr);
  std::string estimated = ResultText(plain);
  EXPECT_NE(estimated.find("#1 "), std::string::npos) << estimated;
  EXPECT_NE(estimated.find("rows="), std::string::npos) << estimated;
  EXPECT_NE(estimated.find("cost="), std::string::npos) << estimated;
  EXPECT_EQ(estimated.find("act_rows="), std::string::npos) << estimated;
  EXPECT_EQ(plain.exec_stats.rows_output, 0);
}

TEST_F(ObservabilityTest, ExplainAnalyzeReportsRetriesAndFaults) {
  const std::string stmt =
      "EXPLAIN ANALYZE SELECT id, price FROM rsrv.d.s.items";
  // Warm the plan cache so compile-time metadata round trips are out of the
  // ordinal stream, then fail one mid-stream result-block message: the scan
  // ships 2000 rows in 512-row blocks, so ordinal 3 is always a block fetch
  // charged to the remote scan operator.
  MustExecute(&host_, stmt);
  remote_.injector->Reset();
  remote_.injector->FailMessages(/*after=*/3, /*count=*/1);
  QueryResult r = MustExecute(&host_, stmt);
  remote_.injector->Reset();
  ASSERT_NE(r.rowset, nullptr);
  std::string plan = ResultText(r);
  EXPECT_NE(plan.find("retries=1"), std::string::npos) << plan;
  EXPECT_NE(plan.find("faults=1"), std::string::npos) << plan;
}

// ---------------------------------------------------------------------------
// Trace spans under a retry storm.
// ---------------------------------------------------------------------------

/// Checks that the spans of one thread form a proper nesting: sorted by
/// start (parents before children), every span lies inside the innermost
/// open span, and its recorded depth equals the nesting level.
void CheckWellFormed(std::vector<trace::SpanRecord> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const trace::SpanRecord& a, const trace::SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.depth != b.depth) return a.depth < b.depth;
              return a.dur_ns > b.dur_ns;
            });
  struct Open {
    int64_t end_ns;
  };
  std::vector<Open> stack;
  for (const trace::SpanRecord& s : spans) {
    ASSERT_GE(s.dur_ns, 0);
    int64_t end = s.start_ns + s.dur_ns;
    while (!stack.empty() && stack.back().end_ns <= s.start_ns) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      EXPECT_LE(end, stack.back().end_ns) << "span " << s.name
                                          << " escapes its parent";
    }
    EXPECT_EQ(s.depth, stack.size()) << "span " << s.name;
    stack.push_back(Open{end});
  }
}

TEST_F(ObservabilityTest, TracerSpansWellFormedUnderRetryStorm) {
  const std::string query = "SELECT id, category FROM rsrv.d.s.items";
  trace::Tracer& tracer = trace::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  // Warm run (records the compile spans), then a storm run: two back-to-back
  // failures on one block fetch (absorbed exactly at the 3-attempt budget)
  // plus one more transient a few messages later.
  MustExecute(&host_, query);
  remote_.injector->Reset();
  remote_.injector->FailMessages(/*after=*/3, /*count=*/2);
  remote_.injector->FailMessages(/*after=*/8, /*count=*/1);
  QueryResult r = MustExecute(&host_, query);
  remote_.injector->Reset();
  tracer.Disable();
  ASSERT_NE(r.rowset, nullptr);
  EXPECT_EQ(r.rowset->rows().size(), 2000u);

  std::vector<trace::SpanRecord> spans = tracer.Snapshot();
  EXPECT_EQ(tracer.dropped(), 0);
  ASSERT_FALSE(spans.empty());

  auto count_named = [&](const char* name) {
    return static_cast<int64_t>(
        std::count_if(spans.begin(), spans.end(),
                      [&](const trace::SpanRecord& s) {
                        return std::string(s.name) == name;
                      }));
  };
  // Host and remote engines share the process-wide tracer, so phase spans
  // appear at least once (host) and possibly more (shipped remote query).
  EXPECT_GE(count_named("engine.parse"), 1);
  EXPECT_GE(count_named("engine.bind"), 1);
  EXPECT_GE(count_named("engine.optimize"), 1);
  EXPECT_GE(count_named("engine.execute"), 1);
  EXPECT_GT(count_named("optimizer.phase"), 0);
  EXPECT_GT(count_named("link.send"), 0);
  // Every injected fault produced a fault-tagged attempt span and every
  // resend a backoff span; trace and ExecStats agree exactly.
  EXPECT_GE(r.exec_stats.faults_injected, 2);
  EXPECT_GE(r.exec_stats.remote_retries, 2);
  EXPECT_EQ(count_named("link.fault"), r.exec_stats.faults_injected);
  EXPECT_EQ(count_named("link.backoff"), r.exec_stats.remote_retries);

  // Fault spans carry the link name, attributing the storm to `rsrv`.
  for (const trace::SpanRecord& s : spans) {
    if (std::string(s.name) == "link.fault" ||
        std::string(s.name) == "link.backoff") {
      EXPECT_STREQ(s.detail, "rsrv");
    }
  }

  // Nesting is well-formed per thread (consumer and prefetch producers).
  std::map<uint32_t, std::vector<trace::SpanRecord>> by_tid;
  for (const trace::SpanRecord& s : spans) by_tid[s.tid].push_back(s);
  for (auto& [tid, thread_spans] : by_tid) {
    SCOPED_TRACE("tid " + std::to_string(tid));
    CheckWellFormed(std::move(thread_spans));
  }

  std::string json = tracer.DumpChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("link.backoff"), std::string::npos);
  tracer.Clear();
}

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST_F(ObservabilityTest, MetricsSnapshotDeterministicAcrossRuns) {
  // Prefetch off: queue-depth observations and producer scheduling are the
  // only timing-dependent counters on this path. Histograms (query_ns) stay
  // timing-dependent by design, so determinism is asserted on counters.
  host_.options()->execution.enable_remote_prefetch = false;
  const std::string query = "SELECT id, price FROM rsrv.d.s.items";
  MustExecute(&host_, query);  // Warm the plan cache: both runs are hits.

  auto counters_section = [](const std::string& snapshot) {
    size_t end = snapshot.find(",\"gauges\"");
    EXPECT_NE(end, std::string::npos);
    return snapshot.substr(0, end);
  };

  metrics::Registry& reg = metrics::Registry::Global();
  reg.ResetAll();
  MustExecute(&host_, query);
  std::string first = counters_section(reg.SnapshotJson());

  reg.ResetAll();
  MustExecute(&host_, query);
  std::string second = counters_section(reg.SnapshotJson());

  EXPECT_EQ(first, second);
  // Two hits per run: host statement plus the shipped remote query (both
  // engines publish into the one process-wide registry).
  EXPECT_NE(first.find("\"engine.plan_cache.hit\":2"), std::string::npos)
      << first;
  EXPECT_NE(first.find("\"link.rsrv.messages\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"exec.rows_output\""), std::string::npos) << first;
  host_.options()->execution.enable_remote_prefetch = true;
}

TEST(MetricsTest, HistogramBucketsSummaryAndReset) {
  metrics::Registry& reg = metrics::Registry::Global();
  metrics::Histogram* h = reg.GetHistogram("test.histogram");
  ASSERT_EQ(h, reg.GetHistogram("test.histogram"));  // Stable pointer.
  h->Reset();
  h->Observe(0);    // bucket 0: v < 1
  h->Observe(1);    // bucket 1: 1 <= v < 2
  h->Observe(7);    // bucket 3: 4 <= v < 8
  h->Observe(8);    // bucket 4: 8 <= v < 16
  EXPECT_EQ(h->Count(), 4);
  EXPECT_EQ(h->Sum(), 16);
  EXPECT_EQ(h->Min(), 0);
  EXPECT_EQ(h->Max(), 8);
  EXPECT_EQ(h->BucketCount(0), 1);
  EXPECT_EQ(h->BucketCount(1), 1);
  EXPECT_EQ(h->BucketCount(3), 1);
  EXPECT_EQ(h->BucketCount(4), 1);

  metrics::Counter* c = reg.GetCounter("test.counter");
  c->Add(41);
  c->Increment();
  EXPECT_EQ(c->Value(), 42);
  std::string snapshot = reg.SnapshotJson();
  EXPECT_NE(snapshot.find("\"test.counter\":42"), std::string::npos);
  EXPECT_NE(snapshot.find("\"test.histogram\""), std::string::npos);

  reg.ResetAll();
  EXPECT_EQ(c->Value(), 0);  // Pointer survives reset.
  EXPECT_EQ(h->Count(), 0);
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan target for tracer + registry hot paths).
// ---------------------------------------------------------------------------

TEST(TracerConcurrencyTest, ConcurrentRecordSnapshotAndCounters) {
  trace::Tracer& tracer = trace::Tracer::Global();
  constexpr size_t kCapacity = 1 << 12;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 4000;  // Overflows: exercises drop path.
  tracer.Enable(kCapacity);
  metrics::Counter* c =
      metrics::Registry::Global().GetCounter("test.concurrent");
  c->Reset();

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        trace::Span span("test.span", "concurrent");
        c->Increment();
      }
    });
  }
  // Readers race the writers: snapshots must only see committed slots.
  for (int i = 0; i < 50; ++i) {
    std::vector<trace::SpanRecord> partial = tracer.Snapshot();
    EXPECT_LE(partial.size(), kCapacity);
    metrics::Registry::Global().SnapshotJson();
  }
  for (std::thread& w : workers) w.join();
  tracer.Disable();

  EXPECT_EQ(c->Value(), kThreads * kSpansPerThread);
  EXPECT_EQ(tracer.size() + static_cast<size_t>(tracer.dropped()),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  EXPECT_LE(tracer.size(), kCapacity);
  tracer.Clear();
}

}  // namespace
}  // namespace dhqp
