// Workload-governor coverage: memory-grant admission control and
// spill-to-disk execution. The differential suites run one corpus across
// memory budgets in {unlimited, tight, minimum-grant} x dop in {1, 4} and
// must produce identical result multisets — with the unlimited serial run
// as the baseline — while the budgeted runs provably spill (exec.spills,
// spill= in EXPLAIN ANALYZE, SPILL_IO waits). The governor suites pin the
// admission semantics: granted memory never exceeds the budget under
// concurrent over-budget submission, queued statements surface in
// dm_exec_query_memory_grants with RESOURCE_SEMAPHORE waits and the
// kQueued request phase, the grant-timeout path degrades to the minimum
// grant instead of starving, and seeded link faults mid-spill never leak a
// grant or a spill file.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/waits.h"
#include "src/core/governor.h"
#include "src/executor/profile.h"
#include "src/sysview/requests.h"
#include "tests/differential_harness.h"
#include "tests/test_util.h"

namespace dhqp {
namespace {

constexpr int kSemIdx = static_cast<int>(waits::WaitType::kResourceSemaphore);
constexpr int kSpillIdx = static_cast<int>(waits::WaitType::kSpillIo);

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

/// One memory-budget regime for the differential cross. `per_query` drives
/// the grant each statement runs under; the server budget stays large so
/// single-statement suites never queue — admission waiting is covered by
/// the dedicated governor tests below.
struct BudgetMode {
  const char* label;
  int64_t budget;     ///< EngineOptions::max_server_memory_bytes.
  int64_t per_query;  ///< EngineOptions::max_grant_per_query_bytes.
};

const BudgetMode kUnlimited = {"unlimited", 0, 0};
const BudgetMode kBudgets[] = {
    // Tight: a 256 KiB grant against ~800 KiB working sets — every
    // buffering operator overflows once.
    {"tight", 256 << 20, 256 << 10},
    // Minimum: the grant equals the 64 KiB floor a timed-out statement
    // degrades to — deep Grace recursion and many sort runs.
    {"minimum-grant", 256 << 20, 64 << 10},
};

void ApplyBudget(Engine* engine, const BudgetMode& mode) {
  engine->options()->max_server_memory_bytes = mode.budget;
  engine->options()->max_grant_per_query_bytes = mode.per_query;
}

const ExecMode kModes[] = {{1, 3}, {1, 1024}, {4, 3}, {4, 1024}};

constexpr int kBig1Rows = 8000;
constexpr int kBig2Rows = 6000;

// Bulk-loads `rows` synthetic rows in 1000-tuple INSERT statements.
void Fill(Engine* engine, const std::string& table, int rows, int cols) {
  for (int base = 0; base < rows; base += 1000) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    int end = std::min(base + 1000, rows);
    for (int i = base; i < end; ++i) {
      if (i != base) sql += ",";
      sql += "(" + std::to_string(i);
      if (cols >= 2) sql += "," + std::to_string(i % 97);
      if (cols >= 3) sql += "," + std::to_string((i * 31) % 1009);
      sql += ")";
    }
    MustExecute(engine, sql);
  }
}

class SpillExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A fresh spill directory per fixture, so a spill file that outlives
    // its statement is caught: every file must be gone once the statement
    // returns, whether it succeeded or hit a fault.
    static int fixtures = 0;
    spill_dir_ = std::filesystem::temp_directory_path() /
                 ("dhqp_spill_test_" + std::to_string(::getpid()) + "_" +
                  std::to_string(++fixtures));
    std::filesystem::create_directories(spill_dir_);
    host_.options()->spill_directory = spill_dir_.string();
    MustExecute(&host_,
                "CREATE TABLE big1 (a INT PRIMARY KEY, b INT, c INT)");
    MustExecute(&host_, "CREATE TABLE big2 (a INT PRIMARY KEY, d INT)");
    MustExecute(&host_,
                "CREATE TABLE big3 (a INT PRIMARY KEY, b INT, c INT)");
    Fill(&host_, "big1", kBig1Rows, 3);
    Fill(&host_, "big2", kBig2Rows, 2);
    Fill(&host_, "big3", 4000, 3);
    // A nullable join and grouping key: every sixth k is NULL.
    MustExecute(&host_, "CREATE TABLE nk (a INT PRIMARY KEY, k INT, v INT)");
    for (int base = 0; base < 3000; base += 1000) {
      std::string sql = "INSERT INTO nk VALUES ";
      for (int i = base; i < base + 1000; ++i) {
        if (i != base) sql += ",";
        sql += "(" + std::to_string(i) + "," +
               (i % 6 == 0 ? std::string("NULL")
                           : std::to_string((i * 7) % 1500)) +
               "," + std::to_string(i % 13) + ")";
      }
      MustExecute(&host_, sql);
    }
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
  }

  /// Asserts the spill directory holds no file once `sql` has finished.
  void ExpectNoSpillFiles(const std::string& sql, const std::string& label) {
    std::vector<std::string> left;
    for (const auto& entry : std::filesystem::directory_iterator(spill_dir_)) {
      left.push_back(entry.path().filename().string());
    }
    EXPECT_TRUE(left.empty()) << sql << " (" << label << ") left "
                              << left.size() << " spill file(s), first "
                              << (left.empty() ? "" : left.front());
  }

  /// Process-wide SPILL_IO event count, via the host's own wait-stats DMV.
  int64_t SpillIoWaits() {
    QueryResult r = MustExecute(
        &host_, "SELECT wait_type, waiting_tasks_count "
                "FROM sys..dm_os_wait_stats");
    for (const Row& row : r.rowset->rows()) {
      if (ColS(r.rowset->schema(), row, "wait_type") == "SPILL_IO") {
        return ColI(r.rowset->schema(), row, "waiting_tasks_count");
      }
    }
    return 0;
  }

  Engine host_;
  std::filesystem::path spill_dir_;
};

// NULL keys through the spilled hash paths: a probe row whose key is NULL
// routes by the key's non-NULL prefix and must still come out of a left
// outer or anti join, and the NULL group must form exactly once.
const char kNullLeftJoin[] =
    "SELECT nk.a, big1.a FROM nk LEFT JOIN big1 ON nk.k = big1.c "
    "WHERE nk.a < 1500";
const char kNullSemiJoin[] =
    "SELECT a, v FROM nk WHERE k IN (SELECT c FROM big1 WHERE b < 50)";
const char kNullAntiJoin[] =
    "SELECT a FROM nk WHERE NOT EXISTS "
    "(SELECT * FROM big1 WHERE big1.c = nk.k)";
const char kNullGroupBy[] = "SELECT k, COUNT(*), SUM(v) FROM nk GROUP BY k";

// Every operator that buffers. Join, sort, and grouping keys are mostly
// NON-indexed columns on purpose: keys covered by the primary-key index
// give the optimizer order for free (merge join, stream aggregate — no
// memory, nothing to spill), so the spilling plans need hash joins, hash
// aggregates, and real sorts. A couple of indexed-key queries stay in the
// corpus as merge-plan controls.
const char* kCorpus[] = {
    // Hash aggregate, 1009 unordered groups.
    "SELECT c, COUNT(*), SUM(b) FROM big1 GROUP BY c",
    // Hash aggregate, 8000 composite groups.
    "SELECT b, c, COUNT(*) FROM big1 GROUP BY b, c",
    // Full-input sort on unindexed keys.
    "SELECT a, b FROM big1 ORDER BY c, a",
    "SELECT TOP 50 a, c FROM big1 WHERE c > 500 ORDER BY c, a",
    // Hash join on unindexed keys: the build side outgrows a tight grant.
    "SELECT big1.a, big1.c, big2.d FROM big1 JOIN big2 ON big1.b = big2.d "
    "WHERE big1.a < 4000",
    // Hash join feeding a hash aggregate.
    "SELECT big1.c, COUNT(*), SUM(big2.d) FROM big1 JOIN big2 "
    "ON big1.c = big2.d GROUP BY big1.c",
    // Left-outer probe: null-extended rows must survive spilled probes.
    "SELECT big1.a, big2.d FROM big1 LEFT JOIN big2 ON big1.b = big2.d "
    "WHERE big1.a < 200",
    // Indexed-key merge join: the no-buffering control stays correct.
    "SELECT big1.a, big1.c, big2.d FROM big1 JOIN big2 ON big1.a = big2.a "
    "WHERE big1.b < 40",
    // DISTINCT accumulators under grouping.
    "SELECT big1.b, COUNT(DISTINCT big2.d) FROM big1 JOIN big2 "
    "ON big1.c = big2.d GROUP BY big1.b",
    // Correlated EXISTS on an unindexed column (spooled inner side).
    "SELECT a FROM big1 WHERE b = 5 AND EXISTS "
    "(SELECT * FROM big2 WHERE big2.d = big1.c)",
    kNullLeftJoin,
    kNullSemiJoin,
    kNullAntiJoin,
    kNullGroupBy,
};

// Each NULL-key corpus entry plans the hash operator it exercises, serial
// and parallel.
TEST_F(SpillExecTest, NullKeyCorpusPlansItsHashOperators) {
  const std::pair<const char*, PhysicalOpKind> targets[] = {
      {kNullLeftJoin, PhysicalOpKind::kHashJoin},
      {kNullSemiJoin, PhysicalOpKind::kHashJoin},
      {kNullAntiJoin, PhysicalOpKind::kHashJoin},
      {kNullGroupBy, PhysicalOpKind::kHashAggregate},
  };
  for (const auto& [sql, kind] : targets) {
    for (int dop : {1, 4}) {
      host_.options()->execution.dop = dop;
      auto prepared = host_.Prepare(sql);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      EXPECT_GT(CountOps(prepared->plan, kind), 0) << sql << " dop=" << dop;
    }
  }
}

TEST_F(SpillExecTest, CorpusIsBudgetInvariant) {
  // Baseline: unlimited memory, serial, default batch size.
  std::vector<Observation> baseline;
  ApplyBudget(&host_, kUnlimited);
  for (const char* sql : kCorpus) {
    baseline.push_back(Observe(&host_, sql, ExecMode{}));
    EXPECT_TRUE(baseline.back().ok) << sql;
    ExpectNoSpillFiles(sql, "unlimited");
  }

  for (const BudgetMode& bm : kBudgets) {
    ApplyBudget(&host_, bm);
    for (size_t q = 0; q < std::size(kCorpus); ++q) {
      for (const ExecMode& mode : kModes) {
        const std::string label = std::string(bm.label) + " " + mode.Label();
        Observation obs = Observe(&host_, kCorpus[q], mode);
        ExpectEquivalent(baseline[q], obs, kCorpus[q], label);
        ExpectWaitsSane(obs, kCorpus[q], label);
        ExpectNoSpillFiles(kCorpus[q], label);
      }
    }

    // The budget run was not vacuous: re-drive the corpus serially and
    // demand real spill activity under this regime.
    host_.options()->execution.dop = 1;
    host_.options()->execution.exec_batch_rows = ExecMode{}.batch_rows;
    int64_t spills = 0;
    int64_t spill_bytes = 0;
    int64_t spill_waits = 0;
    for (const char* sql : kCorpus) {
      QueryResult r = MustExecute(&host_, sql);
      ExpectNoSpillFiles(sql, bm.label);
      spills += r.exec_stats.spills;
      spill_bytes += r.exec_stats.spill_bytes;
      spill_waits += r.wait_totals.count[kSpillIdx];
    }
    EXPECT_GT(spills, 0) << bm.label << ": corpus never spilled";
    EXPECT_GT(spill_bytes, 0) << bm.label;
    EXPECT_GT(spill_waits, 0) << bm.label << ": no SPILL_IO waits charged";
  }

  // The governor held nothing back once the statements finished.
  EXPECT_EQ(governor::Governor::Global().active_grants(), 0);
  EXPECT_EQ(governor::Governor::Global().total_granted_bytes(), 0);
}

TEST_F(SpillExecTest, GeneratedQueriesAgreeAcrossBudgets) {
  // Three pool entries minimum: the generator draws up to three distinct
  // FROM sources and re-rolls duplicates.
  std::vector<QuerySource> pool = {
      {"big1", "big1"}, {"big2", "big2"}, {"big3", "big3"}};
  for (uint64_t seed : {11u, 23u, 47u}) {
    DifferentialQueryGenerator gen(seed, pool, /*max_const=*/6000);
    for (int i = 0; i < 8; ++i) {
      const std::string sql = gen.Next();
      ApplyBudget(&host_, kUnlimited);
      Observation base = Observe(&host_, sql, ExecMode{});
      ExpectNoSpillFiles(sql, "unlimited");
      for (const BudgetMode& bm : kBudgets) {
        ApplyBudget(&host_, bm);
        for (int dop : {1, 4}) {
          const std::string label =
              std::string(bm.label) + " dop=" + std::to_string(dop);
          Observation obs = Observe(&host_, sql, ExecMode{dop});
          ExpectEquivalent(base, obs, sql, label);
          ExpectWaitsSane(obs, sql, label);
          ExpectNoSpillFiles(sql, label);
        }
      }
    }
  }
}

// A forced spill is observable on every surface the ISSUE names: the
// query's ExecStats, the rendered profile and EXPLAIN ANALYZE (spill=),
// dm_exec_operator_stats spill columns, the exec.spills process metric,
// and SPILL_IO rows in dm_os_wait_stats.
TEST_F(SpillExecTest, ForcedSpillIsObservableEverywhere) {
  ApplyBudget(&host_, kBudgets[0]);  // tight
  // Unindexed join keys + unindexed sort: a hash-join build side and a
  // wide sort, both past the 256 KiB grant.
  const char* sql =
      "SELECT big1.c, big2.d FROM big1 JOIN big2 ON big1.b = big2.d "
      "ORDER BY big1.c, big1.a";

  QueryResult r = MustExecute(&host_, sql);
  EXPECT_GT(static_cast<int64_t>(r.exec_stats.spills), 0);
  EXPECT_GT(static_cast<int64_t>(r.exec_stats.spill_bytes), 0);
  EXPECT_GT(r.wait_totals.count[kSpillIdx], 0);
  ASSERT_NE(r.profile, nullptr);
  EXPECT_NE(RenderOperatorProfile(*r.profile).find("spill="),
            std::string::npos);

  QueryResult analyzed =
      MustExecute(&host_, std::string("EXPLAIN ANALYZE ") + sql);
  std::string plan_text;
  for (const Row& row : analyzed.rowset->rows()) {
    plan_text += row[0].string_value() + "\n";
  }
  EXPECT_NE(plan_text.find("spill="), std::string::npos) << plan_text;

  QueryResult ops = MustExecute(
      &host_,
      "SELECT operator, spills, spill_bytes FROM sys..dm_exec_operator_stats");
  int64_t dmv_spills = 0;
  for (const Row& row : ops.rowset->rows()) {
    dmv_spills += ColI(ops.rowset->schema(), row, "spills");
  }
  EXPECT_GT(dmv_spills, 0);

  QueryResult metrics = MustExecute(
      &host_, "SELECT name, value FROM sys..dm_metrics");
  int64_t exec_spills = -1;
  for (const Row& row : metrics.rowset->rows()) {
    if (ColS(metrics.rowset->schema(), row, "name") == "exec.spills") {
      exec_spills = ColI(metrics.rowset->schema(), row, "value");
    }
  }
  EXPECT_GT(exec_spills, 0) << "exec.spills metric missing or zero";

  EXPECT_GT(SpillIoWaits(), 0);
}

// Exchange queues are priced at the configured depth: the grant estimate
// follows ExecOptions::queue_depth(), the depth the queues run with.
TEST_F(SpillExecTest, ExchangeGrantFollowsQueueDepth) {
  host_.options()->execution.dop = 4;
  auto prepared = host_.Prepare(
      "SELECT big1.c, COUNT(*), SUM(big2.d) FROM big1 JOIN big2 "
      "ON big1.c = big2.d GROUP BY big1.c");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_GT(CountOps(prepared->plan, PhysicalOpKind::kExchange), 0);
  ExecOptions exec = host_.options()->execution;
  exec.prefetch_queue_depth = 1;
  const int64_t shallow = governor::EstimateGrantBytes(prepared->plan, exec);
  exec.prefetch_queue_depth = 4;
  const int64_t deep = governor::EstimateGrantBytes(prepared->plan, exec);
  EXPECT_LT(shallow, deep);
}

// A grant prices each hash-join build entry and hash-aggregate group as
// the operator charges it, so a statement whose cardinalities are
// estimated exactly runs without spilling under an ample budget. Keys are
// built at their exact size, so a three-column key is priced exactly too.
TEST_F(SpillExecTest, ExactlyEstimatedHashOperatorsFitTheirGrant) {
  MustExecute(&host_, "CREATE TABLE small (a INT PRIMARY KEY, b INT, c INT)");
  Fill(&host_, "small", 1000, 3);
  ApplyBudget(&host_, {"ample", int64_t{1} << 30, 0});
  const std::pair<const char*, PhysicalOpKind> statements[] = {
      {"SELECT big1.a, small.a FROM big1 JOIN small ON big1.c = small.c",
       PhysicalOpKind::kHashJoin},
      {"SELECT c, COUNT(*), SUM(b) FROM small GROUP BY c",
       PhysicalOpKind::kHashAggregate},
      {"SELECT a, b, c, COUNT(*), SUM(b) FROM small GROUP BY a, b, c",
       PhysicalOpKind::kHashAggregate},
      {"SELECT big1.a, small.a FROM big1 JOIN small ON big1.c = small.c "
       "AND big1.b = small.b AND big1.a = small.a",
       PhysicalOpKind::kHashJoin},
  };
  for (const auto& [sql, kind] : statements) {
    QueryResult r = MustExecute(&host_, sql);
    EXPECT_EQ(CountOps(r.plan, kind), 1) << sql;
    EXPECT_EQ(r.exec_stats.spills, 0) << sql;
    ExpectNoSpillFiles(sql, "ample");
  }
}

// External merge must reproduce the in-memory stable sort bit-for-bit:
// ORDER BY a 97-valued key leaves ~82-way ties whose within-key order is
// the insertion order, across however many spilled runs the minimum grant
// forces.
TEST_F(SpillExecTest, SortSpillIsStableAndOrdered) {
  const char* sql = "SELECT b, a FROM big1 ORDER BY b";
  ApplyBudget(&host_, kUnlimited);
  host_.options()->execution.dop = 1;
  QueryResult in_memory = MustExecute(&host_, sql);
  EXPECT_EQ(static_cast<int64_t>(in_memory.exec_stats.spills), 0);

  ApplyBudget(&host_, kBudgets[1]);  // minimum-grant
  QueryResult spilled = MustExecute(&host_, sql);
  EXPECT_GT(static_cast<int64_t>(spilled.exec_stats.spills), 0);
  EXPECT_EQ(RowsToString(in_memory), RowsToString(spilled));
}

// Seeded chaos: a linked member dies at a scripted message ordinal while
// the coordinator is building (and spilling) a hash join from its stream.
// Whatever the failure point, the statement's memory grant and memory
// charges must be fully released — the resource semaphore can never leak
// budget on an error path.
TEST_F(SpillExecTest, GrantsReleasedAfterLinkFaultsMidSpill) {
  RemoteServer remote = AttachRemoteEngine(&host_, "rsrv");
  MustExecute(remote.engine.get(),
              "CREATE TABLE big (a INT PRIMARY KEY, b INT)");
  Fill(remote.engine.get(), "big", kBig1Rows, 2);
  ApplyBudget(&host_, kBudgets[1]);  // minimum-grant: spills start early

  const std::string sql =
      "SELECT big1.a, big1.c FROM big1 JOIN rsrv.d.s.big "
      "ON big1.a = rsrv.d.s.big.a ORDER BY big1.c, big1.a";
  const int64_t spill_waits_before = SpillIoWaits();

  const int64_t kFaultAfter[] = {0, 2, 4, 7, 11, 16};
  int failures = 0;
  for (size_t i = 0; i < std::size(kFaultAfter); ++i) {
    remote.injector->Reset(ChaosSeed(/*suite_tag=*/0x5b111, i));
    remote.injector->LinkDownAfter(kFaultAfter[i]);
    auto result = host_.Execute(sql);
    if (!result.ok()) ++failures;
    ExpectNoSpillFiles(sql, "fault after " + std::to_string(kFaultAfter[i]));

    // The grant died with the statement, on success and failure alike.
    EXPECT_EQ(governor::Governor::Global().active_grants(), 0)
        << "fault after " << kFaultAfter[i];
    EXPECT_EQ(governor::Governor::Global().total_granted_bytes(), 0)
        << "fault after " << kFaultAfter[i];
    EXPECT_EQ(governor::Governor::Global().queued_statements(), 0);
    for (const auto& state : sysview::RequestRegistry::Global().Snapshot()) {
      EXPECT_EQ(state->memory.current(), 0) << state->engine;
      EXPECT_EQ(state->granted_bytes.load(std::memory_order_relaxed), 0);
    }
  }
  EXPECT_GT(failures, 0) << "no scripted fault ever fired";
  // The chaos loop progressed far enough to spill before (some) faults.
  EXPECT_GT(SpillIoWaits(), spill_waits_before);

  // The link heals; the same statement runs to completion and its answer
  // matches an unlimited-memory run.
  remote.injector->Reset(0);
  QueryResult healed = MustExecute(&host_, sql);
  ExpectNoSpillFiles(sql, "healed");
  EXPECT_GT(healed.exec_stats.spills, 0);
  ApplyBudget(&host_, kUnlimited);
  QueryResult unlimited = MustExecute(&host_, sql);
  ExpectNoSpillFiles(sql, "unlimited");
  EXPECT_EQ(Fingerprint(healed), Fingerprint(unlimited));
}

EngineOptions WorkerOptions(int64_t budget) {
  EngineOptions options;
  options.name = "worker";
  options.max_server_memory_bytes = budget;
  return options;
}

// Concurrent over-budget submission from many engines sharing the process
// governor: at no observable instant does granted memory exceed the server
// budget (checked both from Governor::Snapshot and through the
// dm_exec_query_memory_grants DMV), queueing is visible, every statement
// eventually completes with the right answer (the queue drains — no
// deadlock, no starvation), and the semaphore ends empty.
TEST(GovernorConcurrencyTest, GrantedNeverExceedsBudgetAndQueueDrains) {
  constexpr int kWorkers = 6;
  constexpr int kQueriesPerWorker = 2;
  constexpr int64_t kBudget = 400 << 10;
  // ORDER BY an unindexed column: a real Sort node whose ~300 KiB input
  // overflows the 128 KiB per-query grant.
  const char* kSql = "SELECT a, b FROM t ORDER BY b, a";

  std::vector<std::unique_ptr<Engine>> engines;
  for (int i = 0; i < kWorkers; ++i) {
    auto engine = std::make_unique<Engine>(WorkerOptions(kBudget));
    engine->options()->max_grant_per_query_bytes = 128 << 10;
    engine->options()->max_concurrent_grants = 2;
    engine->options()->grant_timeout_ms = 10000;
    MustExecute(engine.get(), "CREATE TABLE t (a INT PRIMARY KEY, b INT)");
    Fill(engine.get(), "t", 4000, 2);
    engines.push_back(std::move(engine));
  }
  // All workers hold identical data; one unlimited run fixes the answer.
  engines[0]->options()->max_server_memory_bytes = 0;
  const std::string expected = Fingerprint(MustExecute(engines[0].get(), kSql));
  engines[0]->options()->max_server_memory_bytes = kBudget;

  // The monitor engine shares the workers' name so the grants DMV (which
  // scopes to the serving engine's name) sees their grants; its own DMV
  // scans bypass admission and exclude themselves.
  Engine monitor(WorkerOptions(0));

  std::atomic<bool> done{false};
  std::atomic<int> budget_violations{0};
  std::atomic<bool> saw_queued{false};
  std::atomic<bool> saw_queued_dmv{false};
  std::atomic<int64_t> sem_waits{0};
  std::atomic<int64_t> spills{0};
  std::atomic<int> wrong_answers{0};
  std::atomic<int> errors{0};

  std::thread watcher([&] {
    while (!done.load(std::memory_order_relaxed)) {
      int64_t granted = 0;
      for (const governor::GrantRow& row :
           governor::Governor::Global().Snapshot()) {
        granted += row.granted_bytes;
        if (row.is_queued) saw_queued.store(true, std::memory_order_relaxed);
      }
      if (granted > kBudget) {
        budget_violations.fetch_add(1, std::memory_order_relaxed);
      }
      QueryResult g = MustExecute(
          &monitor, "SELECT * FROM sys..dm_exec_query_memory_grants");
      int64_t dmv_granted = 0;
      for (const Row& row : g.rowset->rows()) {
        dmv_granted += ColI(g.rowset->schema(), row, "granted_bytes");
        if (ColI(g.rowset->schema(), row, "is_queued") != 0) {
          saw_queued_dmv.store(true, std::memory_order_relaxed);
        }
      }
      if (dmv_granted > kBudget) {
        budget_violations.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  std::vector<std::thread> workers;
  for (int i = 0; i < kWorkers; ++i) {
    workers.emplace_back([&, i] {
      for (int q = 0; q < kQueriesPerWorker; ++q) {
        auto result = engines[static_cast<size_t>(i)]->Execute(kSql);
        if (!result.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (Fingerprint(*result) != expected) {
          wrong_answers.fetch_add(1, std::memory_order_relaxed);
        }
        sem_waits.fetch_add(result->wait_totals.count[kSemIdx],
                            std::memory_order_relaxed);
        spills.fetch_add(result->exec_stats.spills,
                         std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : workers) t.join();
  done.store(true, std::memory_order_relaxed);
  watcher.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(wrong_answers.load(), 0);
  EXPECT_EQ(budget_violations.load(), 0)
      << "granted memory exceeded the server budget";
  EXPECT_TRUE(saw_queued.load() || saw_queued_dmv.load())
      << "no statement was ever observed queued";
  EXPECT_GT(sem_waits.load(), 0) << "no RESOURCE_SEMAPHORE wait recorded";
  EXPECT_GT(spills.load(), 0) << "128 KiB grants never forced a spill";

  // Drained: nothing held, nothing waiting.
  EXPECT_EQ(governor::Governor::Global().active_grants(), 0);
  EXPECT_EQ(governor::Governor::Global().total_granted_bytes(), 0);
  EXPECT_EQ(governor::Governor::Global().queued_statements(), 0);
}

// Deterministic queue/timeout coverage: the test holds the entire budget
// through a direct grant, so the worker statement must queue (visible as
// is_queued in the DMV, the kQueued request phase, and — after
// grant_timeout_ms — the degraded flag). Releasing the held grant admits
// it at the degraded minimum grant; it spills, completes correctly, and
// charges a RESOURCE_SEMAPHORE wait. Timeout degrades; it never starves.
TEST(GovernorQueueTest, TimeoutDegradesToMinGrantAndCompletes) {
  constexpr int64_t kBudget = 256 << 10;
  Engine engine(WorkerOptions(kBudget));
  engine.options()->grant_timeout_ms = 100;
  MustExecute(&engine, "CREATE TABLE big1 (a INT PRIMARY KEY, b INT, c INT)");
  Fill(&engine, "big1", kBig1Rows, 3);
  const char* kSql = "SELECT a, b FROM big1 ORDER BY c, a";

  engine.options()->max_server_memory_bytes = 0;
  const std::string expected = RowsToString(MustExecute(&engine, kSql));
  engine.options()->max_server_memory_bytes = kBudget;

  governor::GovernorOptions gopts;
  gopts.max_server_memory_bytes = kBudget;
  auto holder = std::make_shared<sysview::RequestState>();
  holder->engine = "holder";
  governor::MemoryGrant held = governor::Governor::Global().Acquire(
      gopts, /*estimate_bytes=*/64 << 20, holder);
  ASSERT_TRUE(held.active());
  ASSERT_EQ(held.granted_bytes(), kBudget);

  QueryResult result;
  std::thread worker([&] { result = MustExecute(&engine, kSql); });

  Engine monitor(WorkerOptions(0));
  bool saw_queued_dmv = false;
  bool saw_degraded = false;
  bool saw_phase_queued = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!(saw_queued_dmv && saw_degraded && saw_phase_queued)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "queued=" << saw_queued_dmv << " degraded=" << saw_degraded
        << " phase=" << saw_phase_queued;
    QueryResult g = MustExecute(
        &monitor, "SELECT * FROM sys..dm_exec_query_memory_grants");
    for (const Row& row : g.rowset->rows()) {
      if (ColS(g.rowset->schema(), row, "statement").find("ORDER BY") ==
          std::string::npos) {
        continue;
      }
      EXPECT_EQ(ColI(g.rowset->schema(), row, "granted_bytes"), 0);
      if (ColI(g.rowset->schema(), row, "is_queued") != 0) {
        saw_queued_dmv = true;
      }
      if (ColI(g.rowset->schema(), row, "degraded") != 0) saw_degraded = true;
    }
    for (const auto& state : sysview::RequestRegistry::Global().Snapshot()) {
      if (state->engine == "worker" &&
          state->Phase() == sysview::RequestPhase::kQueued) {
        saw_phase_queued = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  held.Release();
  worker.join();

  EXPECT_EQ(RowsToString(result), expected);
  EXPECT_GE(result.wait_totals.count[kSemIdx], 1);
  EXPECT_GT(static_cast<int64_t>(result.exec_stats.spills), 0)
      << "the degraded minimum grant did not force a spill";
  EXPECT_EQ(governor::Governor::Global().active_grants(), 0);
  EXPECT_EQ(governor::Governor::Global().total_granted_bytes(), 0);

  // Process wait stats carry the queue time.
  QueryResult w = MustExecute(
      &monitor, "SELECT wait_type, waiting_tasks_count "
                "FROM sys..dm_os_wait_stats");
  int64_t sem_tasks = 0;
  for (const Row& row : w.rowset->rows()) {
    if (ColS(w.rowset->schema(), row, "wait_type") == "RESOURCE_SEMAPHORE") {
      sem_tasks = ColI(w.rowset->schema(), row, "waiting_tasks_count");
    }
  }
  EXPECT_GE(sem_tasks, 1);
}

}  // namespace
}  // namespace dhqp
