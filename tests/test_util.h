#ifndef DHQP_TESTS_TEST_UTIL_H_
#define DHQP_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/connectors/engine_provider.h"
#include "src/connectors/linked_provider.h"
#include "src/core/engine.h"
#include "src/net/fault.h"
#include "src/net/network.h"

namespace dhqp {

#define ASSERT_OK(expr)                                     \
  do {                                                      \
    ::dhqp::Status _st = (expr);                            \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                \
  } while (0)

#define EXPECT_OK(expr)                                     \
  do {                                                      \
    ::dhqp::Status _st = (expr);                            \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                      \
  DHQP_ASSIGN_OR_RETURN_IMPL(                                \
      DHQP_ASSIGN_OR_RETURN_CONCAT(_assert_or_, __LINE__), lhs, expr)

/// Runs a query and asserts success, returning the result.
inline QueryResult MustExecute(Engine* engine, const std::string& sql,
                               const std::map<std::string, Value>& params = {}) {
  auto result = engine->Execute(sql, params);
  EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
  if (!result.ok()) return QueryResult{};
  return std::move(result).value();
}

/// Renders result rows as "(a, b)(c, d)" for compact expectations.
inline std::string RowsToString(const QueryResult& result) {
  if (result.rowset == nullptr) return "";
  std::string out;
  for (const Row& row : result.rowset->rows()) {
    out += RowToString(row);
  }
  return out;
}

/// Single source of determinism for the fault/chaos suites: folds a suite
/// tag and a schedule index into one 64-bit seed (splitmix-style finalizer),
/// so every schedule derives all of its randomness — fault windows, drop
/// probabilities, retry budgets — from (tag, index) via common/rng.h's Rng.
/// Replaying the same pair reproduces the same schedule bit-for-bit.
inline uint64_t ChaosSeed(uint64_t suite_tag, uint64_t index) {
  uint64_t z = suite_tag * 0x9e3779b97f4a7c15ULL + index + 0x853c49e6748fea9bULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A remote engine attached to a host through a traffic-counting link.
/// The link carries an (initially inert) fault injector so tests can script
/// failures without re-wiring the topology.
struct RemoteServer {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<net::Link> link;
  std::unique_ptr<net::FaultInjector> injector;
};

/// Creates `name` as a linked server on `host`, backed by a fresh Engine
/// reachable through a counting (non-delaying) link.
inline RemoteServer AttachRemoteEngine(
    Engine* host, const std::string& name,
    ProviderCapabilities caps = SqlServerCapabilities()) {
  RemoteServer server;
  EngineOptions options;
  options.name = name;
  server.engine = std::make_unique<Engine>(options);
  server.link = std::make_unique<net::Link>(name);
  server.injector = std::make_unique<net::FaultInjector>();
  server.link->set_fault_injector(server.injector.get());
  auto inner =
      std::make_shared<EngineDataSource>(server.engine.get(), std::move(caps));
  auto linked = std::make_shared<LinkedDataSource>(inner, server.link.get());
  EXPECT_OK(host->AddLinkedServer(name, linked));
  return server;
}

/// Holds armed scans in flight: an armed gated rowset reports that it has
/// reached its first row, then waits until the test opens the gate. Lets a
/// test observe a statement mid-execution without timing assumptions.
struct ScanGate {
  std::mutex mu;
  std::condition_variable cv;
  bool armed = false;    ///< Guarded by mu.
  bool reached = false;  ///< Guarded by mu.
  bool open = false;     ///< Guarded by mu.

  void Arrive() {
    std::unique_lock<std::mutex> lock(mu);
    if (!armed) return;
    reached = true;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
  }
  void AwaitReached() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return reached; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
};

/// Three rows that pass the gate before the first one is served.
class GatedRowset : public Rowset {
 public:
  GatedRowset(Schema schema, ScanGate* gate)
      : schema_(std::move(schema)), gate_(gate) {}

  const Schema& schema() const override { return schema_; }

  Result<bool> Next(Row* out) override {
    if (served_ == 0) gate_->Arrive();
    if (served_ >= 3) return false;
    *out = {Value::Int64(served_++)};
    return true;
  }

 private:
  Schema schema_;
  ScanGate* gate_;
  int served_ = 0;
};

/// A scan-only provider with no link: its one table `t` (one INT column
/// `a`) reads through a GatedRowset.
class GatedDataSource : public DataSource {
 public:
  explicit GatedDataSource(ScanGate* gate) : gate_(gate) {
    caps_.provider_name = "Gated";
    caps_.source_type = "Test";
    caps_.query_language = "none";
    caps_.supports_schema_rowset = true;
  }

  const ProviderCapabilities& capabilities() const override { return caps_; }

  Result<std::unique_ptr<Session>> CreateSession() override {
    return std::unique_ptr<Session>(std::make_unique<GatedSession>(gate_));
  }

 private:
  static Schema TableSchema() {
    Schema schema;
    schema.AddColumn(ColumnDef{"a", DataType::kInt64, false});
    return schema;
  }

  class GatedSession : public Session {
   public:
    explicit GatedSession(ScanGate* gate) : gate_(gate) {}

    Result<std::unique_ptr<Rowset>> OpenRowset(
        const std::string& table) override {
      if (table != "t") return Status::NotFound("no table '" + table + "'");
      return std::unique_ptr<Rowset>(
          std::make_unique<GatedRowset>(TableSchema(), gate_));
    }

    Result<std::vector<TableMetadata>> ListTables() override {
      TableMetadata meta;
      meta.name = "t";
      meta.schema = TableSchema();
      meta.cardinality = 3;
      return std::vector<TableMetadata>{std::move(meta)};
    }

   private:
    ScanGate* gate_;
  };

  ProviderCapabilities caps_;
  ScanGate* gate_;
};

/// Counts physical operators of a kind in a plan tree.
inline int CountOps(const PhysicalOpPtr& plan, PhysicalOpKind kind) {
  if (plan == nullptr) return 0;
  int n = plan->kind == kind ? 1 : 0;
  for (const auto& child : plan->children) n += CountOps(child, kind);
  return n;
}

}  // namespace dhqp

#endif  // DHQP_TESTS_TEST_UTIL_H_
