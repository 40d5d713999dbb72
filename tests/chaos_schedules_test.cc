// Deterministic chaos suite: ~100 seeded fault schedules against a small
// federation (3 linked members + a local table). Every schedule scripts the
// members' fault injectors and retry policies from a single seeded Rng
// (tests/test_util.h ChaosSeed), runs the workload queries, and asserts the
// two chaos invariants:
//   (a) every query either returns the exact fault-free result multiset or
//       a clean provider-attributed network error — never a hang, crash, or
//       silent partial result — and leaks no query-worker thread;
//   (b) replaying the same seed under a single-threaded configuration
//       reproduces the same outcome (fault decisions are a pure function of
//       (seed, message ordinal); with prefetch/parallel branches disabled
//       the ordinal sequence itself is deterministic).
//
// Runs as its own ctest binary labeled "chaos;slow" (tests/CMakeLists.txt);
// `ctest -L tier1` excludes it, plain `ctest` includes it.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/executor/worker.h"
#include "tests/test_util.h"

namespace dhqp {
namespace {

constexpr uint64_t kSuiteTag = 0xFA17;  // All schedule seeds derive from this.
constexpr int kMembers = 3;
constexpr int kSchedules = 100;

const std::vector<std::string>& Workload() {
  static const std::vector<std::string>* queries = new std::vector<std::string>{
      // Partitioned-view scan: fans out over all member links.
      "SELECT id, v FROM part_all",
      // Aggregate over the view: exercises drained-to-completion paths.
      "SELECT COUNT(*), SUM(v) FROM part_all",
      // Local-remote join: exercises remote query + rescan machinery.
      "SELECT t_local.k, part.v FROM t_local, m0.d.s.part "
      "WHERE t_local.k = part.id",
  };
  return *queries;
}

struct Federation {
  std::unique_ptr<Engine> host;
  std::vector<RemoteServer> members;
  std::vector<std::string> baselines;  // Fault-free fingerprint per query.
};

/// Sorted row multiset (order-insensitive) or the error code: the canonical
/// "outcome" of one query for both invariants.
std::string Fingerprint(const Result<QueryResult>& result) {
  if (!result.ok()) {
    return "ERR:" + std::to_string(static_cast<int>(result.status().code()));
  }
  std::multiset<std::string> rows;
  for (const Row& row : result->rowset->rows()) rows.insert(RowToString(row));
  std::string out = "OK:";
  for (const std::string& row : rows) out += row;
  return out;
}

Federation BuildFederation() {
  Federation fed;
  fed.host = std::make_unique<Engine>();
  for (int m = 0; m < kMembers; ++m) {
    RemoteServer server =
        AttachRemoteEngine(fed.host.get(), "m" + std::to_string(m));
    MustExecute(server.engine.get(), "CREATE TABLE part (id INT, v INT)");
    for (int i = 0; i < 40; ++i) {
      MustExecute(server.engine.get(),
                  "INSERT INTO part (id, v) VALUES (" +
                      std::to_string(m * 1000 + i) + ", " + std::to_string(i) +
                      ")");
    }
    fed.members.push_back(std::move(server));
  }
  MustExecute(fed.host.get(),
              "CREATE VIEW part_all AS "
              "SELECT * FROM m0.d.s.part UNION ALL "
              "SELECT * FROM m1.d.s.part UNION ALL "
              "SELECT * FROM m2.d.s.part");
  MustExecute(fed.host.get(), "CREATE TABLE t_local (k INT)");
  for (int i = 0; i < 10; ++i) {
    MustExecute(fed.host.get(),
                "INSERT INTO t_local (k) VALUES (" + std::to_string(i) + ")");
  }
  for (const std::string& sql : Workload()) {
    auto result = fed.host->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    fed.baselines.push_back(Fingerprint(result));
  }
  return fed;
}

/// Disarms every injector and re-runs the workload fault-free. Restores the
/// normalized pre-schedule state: live sessions, warm plan/metadata/stats
/// caches. Replay determinism is defined from this state.
void Normalize(Federation* fed) {
  for (RemoteServer& member : fed->members) member.injector->Reset();
  for (const std::string& sql : Workload()) {
    auto result = fed->host->Execute(sql);
    ASSERT_TRUE(result.ok()) << "fault-free warmup failed: " << sql << " -> "
                             << result.status().ToString();
  }
}

/// Scripts all member injectors + retry policies + exec options from `seed`.
/// Pure function of the seed: arming twice yields identical schedules.
void ArmSchedule(Federation* fed, uint64_t seed, bool sequential_config) {
  Rng rng(ChaosSeed(kSuiteTag, seed));
  for (RemoteServer& member : fed->members) {
    net::FaultInjector* injector = member.injector.get();
    injector->Reset(rng.Next());  // Rewind ordinals; reseed the drop hash.
    net::RetryPolicy policy;
    policy.max_attempts = static_cast<int>(rng.Uniform(1, 4));
    policy.backoff_us = static_cast<double>(rng.Uniform(1, 100));
    policy.max_backoff_us = 1000;
    switch (rng.Uniform(0, 9)) {
      case 0:
      case 1:
      case 2:
        break;  // This member rides out the schedule clean.
      case 3:
        injector->FailMessages(static_cast<int64_t>(rng.Uniform(0, 20)),
                               static_cast<int64_t>(rng.Uniform(1, 3)));
        break;
      case 4:
        injector->FailMessages(static_cast<int64_t>(rng.Uniform(0, 10)),
                               static_cast<int64_t>(rng.Uniform(1, 2)));
        injector->FailMessages(static_cast<int64_t>(rng.Uniform(10, 30)),
                               static_cast<int64_t>(rng.Uniform(1, 2)));
        break;
      case 5:
        injector->SetDropProbability(0.02 + 0.1 * rng.NextDouble());
        break;
      case 6:
        injector->AddLatencySpike(static_cast<int64_t>(rng.Uniform(0, 15)),
                                  static_cast<int64_t>(rng.Uniform(1, 3)),
                                  /*extra_us=*/500);
        policy.deadline_us = 200;  // Turns the spikes into timeouts.
        break;
      case 7:
        injector->LinkDownAfter(static_cast<int64_t>(rng.Uniform(0, 25)));
        break;
      case 8:
        injector->FailMessages(static_cast<int64_t>(rng.Uniform(0, 15)),
                               static_cast<int64_t>(rng.Uniform(1, 2)));
        injector->AddLatencySpike(static_cast<int64_t>(rng.Uniform(0, 15)),
                                  static_cast<int64_t>(rng.Uniform(1, 2)),
                                  /*extra_us=*/500);
        policy.deadline_us = 200;
        break;
      default:
        injector->LinkDownAfter(0);
        break;
    }
    member.link->set_retry_policy(policy);
  }
  ExecOptions* exec = &fed->host->options()->execution;
  exec->skip_unreachable_members = false;  // Strict: no partial results.
  if (sequential_config) {
    // One consumer thread, one message stream per link: the fault pattern
    // (not just the fault set) replays exactly.
    exec->concat_dop = 1;
    exec->enable_remote_prefetch = false;
  } else {
    exec->concat_dop = rng.Uniform(0, 1) == 0 ? 1 : 4;
    exec->enable_remote_prefetch = rng.Uniform(0, 1) == 0;
  }
}

/// Runs the armed workload; returns the concatenated per-query outcomes.
/// Asserts chaos invariant (a) for every query against the baselines.
std::string RunArmed(Federation* fed) {
  std::string outcome;
  for (size_t q = 0; q < Workload().size(); ++q) {
    auto result = fed->host->Execute(Workload()[q]);
    const std::string fp = Fingerprint(result);
    if (result.ok()) {
      // Exact fault-free multiset — retries and skipped-then-recompiled
      // plans must never duplicate or drop rows.
      EXPECT_EQ(fp, fed->baselines[q]) << Workload()[q];
    } else {
      // Clean, provider-attributed error: the normal Result<> path, naming
      // the linked server that failed.
      EXPECT_EQ(result.status().code(), StatusCode::kNetworkError)
          << result.status().ToString();
      EXPECT_NE(result.status().message().find("linked server"),
                std::string::npos)
          << result.status().ToString();
    }
    // Never a leaked query-worker thread (prefetch producer, Concat
    // branch), whatever the outcome.
    EXPECT_EQ(QueryWorkers::live(), 0) << Workload()[q];
    outcome += fp + "|";
  }
  return outcome;
}

TEST(ChaosSchedulesTest, EveryScheduleYieldsExactResultOrCleanError) {
  Federation fed = BuildFederation();
  ASSERT_EQ(fed.baselines.size(), Workload().size());
  for (uint64_t seed = 0; seed < kSchedules; ++seed) {
    SCOPED_TRACE("schedule seed " + std::to_string(seed));
    Normalize(&fed);
    if (::testing::Test::HasFatalFailure()) return;
    // Mixed configurations: prefetch threads and parallel branches draw
    // from the same scripted fault stream.
    ArmSchedule(&fed, seed, /*sequential_config=*/false);
    RunArmed(&fed);
  }
  // The engine is still fully usable after 100 schedules.
  Normalize(&fed);
}

// Intra-query parallelism must not perturb chaos determinism: the exchange
// enforcer applies only to fully-local subtrees, so every remote-involving
// workload query keeps a serial (exchange-free) plan — and with it the
// wire-message ordinal sequence the injectors script against — at any dop.
// Same seed, same outcome, whether the host runs with dop=1 or dop=4.
TEST(ChaosSchedulesTest, SameSeedSameOutcomeUnderDop) {
  Federation fed = BuildFederation();
  for (uint64_t seed = 0; seed < 30; ++seed) {
    SCOPED_TRACE("schedule seed " + std::to_string(seed));
    std::string outcomes[2];
    const int dops[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      // dop set BEFORE Normalize: the fault-free warmup (re)compiles the
      // workload under this dop (the plan cache keys on it), so no
      // compile-time remote traffic consumes scripted ordinals during the
      // armed run.
      fed.host->options()->execution.dop = dops[i];
      Normalize(&fed);
      if (::testing::Test::HasFatalFailure()) return;
      ArmSchedule(&fed, seed, /*sequential_config=*/true);
      outcomes[i] = RunArmed(&fed);
    }
    EXPECT_EQ(outcomes[0], outcomes[1])
        << "seed " << seed << " outcome depends on dop";
  }
  // The serial-remote-subtree rule, checked structurally: even at dop=4 the
  // remote-involving workload plans contain no exchange operator.
  fed.host->options()->execution.dop = 4;
  Normalize(&fed);
  for (const std::string& sql : Workload()) {
    auto result = fed.host->Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    EXPECT_EQ(CountOps(result->plan, PhysicalOpKind::kExchange), 0) << sql;
  }
  fed.host->options()->execution.dop = 1;
}

TEST(ChaosSchedulesTest, SameSeedReproducesSameOutcome) {
  Federation fed = BuildFederation();
  for (uint64_t seed = 0; seed < kSchedules; ++seed) {
    SCOPED_TRACE("schedule seed " + std::to_string(seed));
    Normalize(&fed);
    if (::testing::Test::HasFatalFailure()) return;
    ArmSchedule(&fed, seed, /*sequential_config=*/true);
    const std::string first = RunArmed(&fed);

    Normalize(&fed);
    if (::testing::Test::HasFatalFailure()) return;
    ArmSchedule(&fed, seed, /*sequential_config=*/true);
    const std::string second = RunArmed(&fed);

    EXPECT_EQ(first, second) << "seed " << seed
                             << " did not replay deterministically";
  }
}

}  // namespace
}  // namespace dhqp
