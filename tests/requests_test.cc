// Live request monitoring (sys..dm_exec_requests), per-operator memory
// accounting, and cross-engine trace stitching: a monitor thread watches a
// deliberately slow distributed query mid-flight, progress counters must
// only grow, memory charges must settle to zero at completion, and the
// merged Chrome trace must carry both coordinator and member spans under
// one activity id.

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/trace.h"
#include "src/core/governor.h"
#include "src/executor/profile.h"
#include "src/sysview/requests.h"
#include "tests/test_util.h"

namespace dhqp {
namespace {

int64_t ColI(const Schema& schema, const Row& row, const char* name) {
  int ord = schema.FindColumn(name);
  EXPECT_GE(ord, 0) << "column " << name;
  return row[static_cast<size_t>(ord)].int64_value();
}

std::string ColS(const Schema& schema, const Row& row, const char* name) {
  int ord = schema.FindColumn(name);
  EXPECT_GE(ord, 0) << "column " << name;
  return row[static_cast<size_t>(ord)].string_value();
}

EngineOptions HostOptions() {
  EngineOptions options;
  options.name = "host";
  return options;
}

class RequestsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    remote_ = AttachRemoteEngine(&host_, "rsrv");
    MustExecute(remote_.engine.get(),
                "CREATE TABLE big (a INT PRIMARY KEY, b INT)");
    int next = 0;
    for (int batch = 0; batch < 40; ++batch) {
      std::string values;
      for (int i = 0; i < 250; ++i, ++next) {
        if (i > 0) values += ",";
        values += "(" + std::to_string(next) + "," +
                  std::to_string(next % 97) + ")";
      }
      MustExecute(remote_.engine.get(), "INSERT INTO big VALUES " + values);
    }
    // A local dimension table: joining it against the remote stream pins
    // the join + sort on the coordinator (they cannot be pushed down), so
    // host-side operators hold observable memory mid-flight.
    std::string dim_values;
    for (int v = 0; v < 97; ++v) {
      if (v > 0) dim_values += ",";
      dim_values += "(" + std::to_string(v) + "," + std::to_string(v * 3) + ")";
    }
    MustExecute(&host_, "CREATE TABLE dim (v INT PRIMARY KEY, w INT)");
    MustExecute(&host_, "INSERT INTO dim VALUES " + dim_values);
  }

  Engine host_{HostOptions()};
  RemoteServer remote_;
};

// Self-exclusion: a scan of dm_exec_requests is itself an in-flight request
// at snapshot time, but must not appear in its own result (two-layer sys
// gating plus the activity-id backstop in FillRequests).
TEST_F(RequestsTest, DmvScanDoesNotListItself) {
  QueryResult r = MustExecute(
      &host_, "SELECT request_id, statement FROM sys..dm_exec_requests");
  EXPECT_EQ(r.rowset->rows().size(), 0u) << RowsToString(r);
}

// The headline scenario: while a seeded-slow distributed ORDER BY runs on a
// worker thread, dm_exec_requests (read through the catalog's system
// session — concurrent Execute on one engine is not supported) shows the
// statement with monotonically non-decreasing rows_processed, non-zero
// wait and memory columns mid-flight, and a percent_complete within
// bounds; once the query finishes, its memory charge settles to zero.
TEST_F(RequestsTest, LiveDistributedQueryVisibleWithMonotonicProgress) {
  // Every message on the rsrv link pays a spike, so the remote drain is
  // slow enough to observe while the host-side sort buffers rows.
  remote_.injector->AddLatencySpike(/*after=*/0, /*count=*/1 << 20,
                                    /*extra_us=*/2000);
  remote_.link->set_enforce_delays(true);

  std::atomic<bool> done{false};
  std::thread worker([&] {
    MustExecute(&host_,
                "SELECT big.a, big.b, dim.w FROM rsrv.d.s.big JOIN dim "
                "ON big.b = dim.v ORDER BY big.b, big.a");
    done.store(true, std::memory_order_release);
  });

  std::vector<int64_t> rows_seen;
  bool saw_wait = false;
  bool saw_memory = false;
  std::shared_ptr<sysview::RequestState> observed;
  while (!done.load(std::memory_order_acquire)) {
    auto session = host_.catalog()->SystemSession();
    ASSERT_OK(session.status());
    auto rowset = (*session)->OpenRowset("dm_exec_requests");
    ASSERT_OK(rowset.status());
    const Schema schema = (*rowset)->schema();
    auto rows = DrainRowset(rowset->get());
    ASSERT_OK(rows.status());
    for (const Row& row : *rows) {
      if (ColS(schema, row, "engine") != "host") continue;
      rows_seen.push_back(ColI(schema, row, "rows_processed"));
      EXPECT_GE(ColI(schema, row, "dop"), 1);
      EXPECT_GE(ColI(schema, row, "elapsed_ns"), 0);
      EXPECT_NE(ColS(schema, row, "statement").find("ORDER BY"),
                std::string::npos);
      const int64_t pct = ColI(schema, row, "percent_complete");
      EXPECT_GE(pct, 0);
      EXPECT_LE(pct, 100);
      if (ColI(schema, row, "wait_ns") > 0) saw_wait = true;
      if (ColI(schema, row, "memory_bytes") > 0) saw_memory = true;
    }
    if (observed == nullptr) {
      for (const std::shared_ptr<sysview::RequestState>& state :
           sysview::RequestRegistry::Global().Snapshot()) {
        if (state->engine == "host" &&
            !state->exclude.load(std::memory_order_relaxed)) {
          observed = state;
        }
      }
    }
  }
  worker.join();

  ASSERT_FALSE(rows_seen.empty()) << "query never observed mid-flight";
  for (size_t i = 1; i < rows_seen.size(); ++i) {
    EXPECT_GE(rows_seen[i], rows_seen[i - 1]) << "at snapshot " << i;
  }
  EXPECT_TRUE(saw_wait) << "no snapshot showed live wait time";
  EXPECT_TRUE(saw_memory) << "no snapshot showed live memory";

  // A snapshot taken mid-completion stays valid: the shared state outlives
  // unregistration, reports the terminal phase, and every memory charge
  // made on the query's behalf was released.
  ASSERT_NE(observed, nullptr);
  EXPECT_EQ(observed->Phase(), sysview::RequestPhase::kFinished);
  EXPECT_EQ(observed->memory.current(), 0);
  EXPECT_GT(observed->memory.peak(), 0);
  EXPECT_GT(waits::Snapshot(observed->waits).total_ns(), 0);

  // The registry dropped the finished request.
  QueryResult after = MustExecute(
      &host_, "SELECT request_id FROM sys..dm_exec_requests");
  EXPECT_EQ(after.rowset->rows().size(), 0u);
}

// Memory accounting surfaces per operator: EXPLAIN ANALYZE prints a mem=
// figure for buffering operators, and dm_exec_operator_stats exposes the
// same peak as a column.
TEST_F(RequestsTest, OperatorMemorySurfacesInExplainAnalyzeAndDmv) {
  QueryResult analyzed = MustExecute(
      &host_, "EXPLAIN ANALYZE SELECT a, b FROM rsrv.d.s.big ORDER BY b, a");
  std::string plan_text;
  for (const Row& row : analyzed.rowset->rows()) {
    plan_text += row[0].string_value() + "\n";
  }
  EXPECT_NE(plan_text.find("mem="), std::string::npos) << plan_text;

  MustExecute(&host_, "SELECT a, b FROM rsrv.d.s.big ORDER BY b, a");
  QueryResult stats = MustExecute(
      &host_,
      "SELECT operator, memory_bytes FROM sys..dm_exec_operator_stats");
  int64_t max_mem = 0;
  for (size_t i = 0; i < stats.rowset->rows().size(); ++i) {
    const Row& row = stats.rowset->rows()[i];
    max_mem = std::max(max_mem,
                       ColI(stats.rowset->schema(), row, "memory_bytes"));
  }
  EXPECT_GT(max_mem, 0) << "no operator reported peak memory";
}

// Cross-engine trace stitching: after a distributed query runs under
// tracing, the coordinator pulls members' dm_trace_spans through the sys
// linked-server path and renders one Chrome trace whose process tracks
// cover both engines, keyed by the query's activity id.
TEST_F(RequestsTest, MergedChromeTraceStitchesCoordinatorAndMemberSpans) {
  trace::Tracer::Global().Enable();
  QueryResult r =
      MustExecute(&host_, "SELECT a, b FROM rsrv.d.s.big WHERE a < 50");
  trace::Tracer::Global().Disable();
  ASSERT_FALSE(r.activity_id.empty());

  auto merged = host_.MergedChromeTrace(r.activity_id);
  ASSERT_OK(merged.status());
  const std::string& json = *merged;
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 64);
  // One process track per engine: both the coordinator and the member
  // contributed at least one span under this activity id.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"host\""), std::string::npos);
  EXPECT_NE(json.find("\"rsrv\""), std::string::npos);
  EXPECT_NE(json.find(r.activity_id), std::string::npos);
}

// Memory settles to zero for a statement that spilled: the spill files'
// buffers and the survivors of each Grace partition all release, the
// memory grant is returned, and the request's grant columns clear.
TEST_F(RequestsTest, SpilledStatementMemorySettlesToZero) {
  host_.options()->max_server_memory_bytes = int64_t{256} << 20;
  host_.options()->max_grant_per_query_bytes = 64 << 10;

  // Slow the remote stream down so the monitor can capture the request
  // state mid-flight (the registry drops it at completion).
  remote_.injector->AddLatencySpike(/*after=*/2, /*count=*/6,
                                    /*extra_us=*/30000);
  remote_.link->set_enforce_delays(true);

  // Joining the local dimension pins the join + sort on the coordinator —
  // a pure remote ORDER BY would be pushed down whole and spill nothing
  // here.
  QueryResult result;
  std::thread worker([&] {
    result = MustExecute(&host_,
                         "SELECT big.a, big.b, dim.w FROM rsrv.d.s.big "
                         "JOIN dim ON big.b = dim.v ORDER BY big.b, big.a");
  });
  std::shared_ptr<sysview::RequestState> observed;
  while (observed == nullptr) {
    for (const std::shared_ptr<sysview::RequestState>& state :
         sysview::RequestRegistry::Global().Snapshot()) {
      if (state->engine == "host" &&
          !state->exclude.load(std::memory_order_relaxed)) {
        observed = state;
      }
    }
  }
  worker.join();
  remote_.link->set_enforce_delays(false);
  remote_.injector->Reset(0);

  EXPECT_GT(static_cast<int64_t>(result.exec_stats.spills), 0)
      << "64 KiB grant did not force a spill";
  EXPECT_EQ(observed->Phase(), sysview::RequestPhase::kFinished);
  EXPECT_EQ(observed->memory.current(), 0);
  EXPECT_GT(observed->memory.peak(), 0);
  EXPECT_EQ(observed->requested_grant_bytes.load(std::memory_order_relaxed),
            0);
  EXPECT_EQ(observed->granted_bytes.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(governor::Governor::Global().active_grants(), 0);
  EXPECT_EQ(governor::Governor::Global().total_granted_bytes(), 0);
}

// Memory settles to zero for a statement that queued for a grant and then
// failed: the test holds the whole budget (forcing the worker statement
// into the kQueued phase), releases it, and the admitted statement dies on
// a downed link — the grant and every memory charge must still unwind.
TEST_F(RequestsTest, QueuedThenFailedStatementSettlesToZero) {
  const int64_t kBudget = int64_t{256} << 10;
  host_.options()->max_server_memory_bytes = kBudget;
  const std::string sql = "SELECT a, b FROM rsrv.d.s.big ORDER BY b, a";

  // Prime the plan cache so the statement under test binds nothing over
  // the link before admission — its first link traffic is execution-phase,
  // strictly after the queued wait we script below.
  MustExecute(&host_, sql);

  governor::GovernorOptions gopts;
  gopts.max_server_memory_bytes = kBudget;
  auto holder = std::make_shared<sysview::RequestState>();
  holder->engine = "holder";
  governor::MemoryGrant held = governor::Governor::Global().Acquire(
      gopts, /*estimate_bytes=*/64 << 20, holder);
  ASSERT_TRUE(held.active());

  remote_.injector->LinkDownAfter(/*after=*/0);
  Status failure = Status::OK();
  std::thread worker([&] {
    auto result = host_.Execute(sql);
    failure = result.status();
  });

  // Deterministically queued: the held grant owns the entire budget.
  std::shared_ptr<sysview::RequestState> observed;
  while (observed == nullptr) {
    for (const std::shared_ptr<sysview::RequestState>& state :
         sysview::RequestRegistry::Global().Snapshot()) {
      if (state->engine == "host" &&
          state->Phase() == sysview::RequestPhase::kQueued) {
        observed = state;
      }
    }
  }
  held.Release();
  worker.join();
  remote_.injector->Reset(0);

  EXPECT_FALSE(failure.ok()) << "link-down fault never fired";
  EXPECT_EQ(observed->memory.current(), 0);
  EXPECT_EQ(observed->requested_grant_bytes.load(std::memory_order_relaxed),
            0);
  EXPECT_EQ(observed->granted_bytes.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(governor::Governor::Global().active_grants(), 0);
  EXPECT_EQ(governor::Governor::Global().total_granted_bytes(), 0);
  EXPECT_EQ(governor::Governor::Global().queued_statements(), 0);

  // The engine recovers once the link heals.
  host_.options()->max_server_memory_bytes = 0;
  MustExecute(&host_, "SELECT a, b FROM rsrv.d.s.big ORDER BY b, a");
}

}  // namespace
}  // namespace dhqp
