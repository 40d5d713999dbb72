#include "src/connectors/dmv_provider.h"

#include <iterator>
#include <set>
#include <utility>

#include "src/catalog/catalog.h"
#include "src/common/activity.h"
#include "src/common/fastclock.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/common/waits.h"
#include "src/connectors/engine_provider.h"
#include "src/connectors/linked_provider.h"
#include "src/core/engine.h"
#include "src/core/governor.h"
#include "src/executor/profile.h"
#include "src/sysview/query_store.h"
#include "src/sysview/requests.h"

namespace dhqp {

namespace {

Value I(int64_t v) { return Value::Int64(v); }
Value S(std::string v) { return Value::String(std::move(v)); }
Value D(double v) { return Value::Double(v); }

ColumnDef IntCol(const char* name) {
  return ColumnDef{name, DataType::kInt64, false};
}
ColumnDef StrCol(const char* name) {
  return ColumnDef{name, DataType::kString, false};
}
ColumnDef DblCol(const char* name) {
  return ColumnDef{name, DataType::kDouble, false};
}

Schema QueryStatsSchema() {
  return Schema({StrCol("fingerprint"), StrCol("statement_type"),
                 StrCol("sample_statement"), IntCol("executions"),
                 IntCol("failures"), IntCol("cache_hits"),
                 IntCol("cache_misses"), IntCol("total_duration_ns"),
                 IntCol("min_duration_ns"), IntCol("max_duration_ns"),
                 IntCol("rows"), IntCol("retries"), IntCol("timeouts"),
                 IntCol("faults"), IntCol("warnings"), IntCol("wait_count"),
                 IntCol("total_wait_ns"), IntCol("last_execution_id")});
}

Schema OperatorStatsSchema() {
  return Schema({IntCol("query_id"), IntCol("op_id"), IntCol("parent_op_id"),
                 StrCol("operator"), StrCol("link"), DblCol("est_rows"),
                 IntCol("act_rows"), IntCol("opens"), IntCol("restarts"),
                 IntCol("batches"), IntCol("exec_batches"),
                 IntCol("total_ns"),
                 IntCol("link_messages"), IntCol("wire_rows"),
                 IntCol("link_bytes"), IntCol("retries"), IntCol("timeouts"),
                 IntCol("faults"), IntCol("waits"), IntCol("wait_ns"),
                 IntCol("memory_bytes"), IntCol("spills"),
                 IntCol("spill_bytes")});
}

Schema RequestsSchema() {
  return Schema({IntCol("request_id"), StrCol("engine"), StrCol("activity_id"),
                 StrCol("statement"), StrCol("phase"), IntCol("elapsed_ns"),
                 IntCol("dop"), IntCol("rows_processed"), IntCol("batches"),
                 IntCol("wait_count"), IntCol("wait_ns"),
                 StrCol("top_wait_type"), IntCol("memory_bytes"),
                 IntCol("percent_complete"),
                 IntCol("requested_memory_bytes"),
                 IntCol("granted_memory_bytes"), IntCol("spills")});
}

Schema MemoryGrantsSchema() {
  return Schema({IntCol("grant_id"), StrCol("engine"), StrCol("activity_id"),
                 StrCol("statement"), IntCol("dop"), IntCol("is_queued"),
                 IntCol("requested_bytes"), IntCol("granted_bytes"),
                 IntCol("wait_ns"), IntCol("degraded"), IntCol("used_bytes"),
                 IntCol("peak_bytes")});
}

Schema WaitStatsSchema() {
  return Schema({StrCol("wait_type"), IntCol("waiting_tasks_count"),
                 IntCol("wait_time_ns"), IntCol("max_wait_time_ns")});
}

Schema DistributedRequestsSchema() {
  return Schema({StrCol("activity_id"), StrCol("server"), StrCol("role"),
                 IntCol("execution_id"), StrCol("statement_type"),
                 StrCol("statement"), IntCol("duration_ns"), IntCol("ok"),
                 IntCol("rows"), IntCol("wait_ns"), StrCol("top_wait_type")});
}

Schema LinkStatsSchema() {
  return Schema({StrCol("server"), StrCol("link"), IntCol("messages"),
                 IntCol("wire_rows"), IntCol("bytes"), IntCol("retries"),
                 IntCol("timeouts"), IntCol("faults")});
}

Schema PlanCacheSchema() {
  return Schema({StrCol("statement"), IntCol("schema_version"),
                 IntCol("hits"), DblCol("est_cost"), IntCol("valid")});
}

Schema MetricsSchema() {
  return Schema({StrCol("kind"), StrCol("name"), IntCol("value"),
                 IntCol("count"), IntCol("sum"), IntCol("min"),
                 IntCol("max")});
}

Schema TraceSpansSchema() {
  return Schema({StrCol("engine"), StrCol("activity_id"), StrCol("name"),
                 StrCol("detail"), IntCol("start_ns"), IntCol("dur_ns"),
                 IntCol("tid"), IntCol("depth")});
}

std::vector<Row> FillQueryStats(Engine* engine) {
  std::vector<Row> rows;
  for (const sysview::FingerprintStats& f :
       engine->query_store()->AggregateSnapshot()) {
    rows.push_back(Row{S(sysview::FingerprintToString(f.fingerprint)),
                S(f.statement_type),
                S(f.sample_statement),
                I(f.executions),
                I(f.failures),
                I(f.cache_hits),
                I(f.cache_misses),
                I(f.total_duration_ns),
                I(f.min_duration_ns),
                I(f.max_duration_ns),
                I(f.rows),
                I(f.retries),
                I(f.timeouts),
                I(f.faults),
                I(f.warnings),
                I(f.wait_count),
                I(f.total_wait_ns),
                I(f.last_execution_id)});
  }
  return rows;
}

std::vector<Row> FillOperatorStats(Engine* engine) {
  std::vector<Row> rows;
  for (const std::shared_ptr<const sysview::RequestState>& rec :
       engine->query_store()->Snapshot()) {
    const std::shared_ptr<const OperatorProfile> profile = rec->profile();
    if (profile == nullptr) continue;
    // Profiles in the store are quiescent (the executor joined its threads
    // before the record was appended), so relaxed loads read final values.
    for (const FlatOperator& f : FlattenOperatorProfile(*profile)) {
      const OperatorProfile& op = *f.op;
      rows.push_back(Row{I(rec->execution_id),
                  I(op.id),
                  I(f.parent_id),
                  S(op.name),
                  S(op.link),
                  D(op.estimated_rows),
                  I(op.rows_out.load(std::memory_order_relaxed)),
                  I(op.opens.load(std::memory_order_relaxed)),
                  I(op.restarts.load(std::memory_order_relaxed)),
                  I(op.batches.load(std::memory_order_relaxed)),
                  I(op.exec_batches.load(std::memory_order_relaxed)),
                  I(op.total_ns()),
                  I(op.link_charges.messages.load(std::memory_order_relaxed)),
                  I(op.link_charges.rows.load(std::memory_order_relaxed)),
                  I(op.link_charges.bytes.load(std::memory_order_relaxed)),
                  I(op.link_charges.retries.load(std::memory_order_relaxed)),
                  I(op.link_charges.timeouts.load(std::memory_order_relaxed)),
                  I(op.link_charges.faults.load(std::memory_order_relaxed)),
                  I(op.wait_tally.total_count()),
                  I(op.wait_tally.total_ns()),
                  I(op.mem.peak()),
                  I(op.spills.load(std::memory_order_relaxed)),
                  I(op.spill_bytes.load(std::memory_order_relaxed))});
    }
  }
  return rows;
}

std::vector<Row> FillLinkStats(Engine* engine) {
  std::vector<Row> rows;
  Catalog* catalog = engine->catalog();
  for (const std::string& server : catalog->LinkedServerNames()) {
    auto source = catalog->GetLinkedServer(server);
    if (!source.ok()) continue;
    auto* linked = dynamic_cast<LinkedDataSource*>(*source);
    if (linked == nullptr) continue;  // In-process source: no link.
    net::LinkStats s = linked->link()->stats();
    rows.push_back(Row{S(server),     S(linked->link()->name()),
                I(s.messages), I(s.rows),
                I(s.bytes),    I(s.retries),
                I(s.timeouts), I(s.faults)});
  }
  return rows;
}

std::vector<Row> FillPlanCache(Engine* engine) {
  std::vector<Row> rows;
  for (const Engine::PlanCacheEntry& e : engine->PlanCacheSnapshot()) {
    rows.push_back(Row{S(e.statement), I(static_cast<int64_t>(e.schema_version)),
                I(e.hits), D(e.est_cost), I(e.valid ? 1 : 0)});
  }
  return rows;
}

std::vector<Row> FillMetrics(Engine*) {
  std::vector<Row> rows;
  for (const metrics::Sample& s : metrics::Registry::Global().Samples()) {
    rows.push_back(Row{S(s.kind), S(s.name), I(s.value), I(s.count),
                I(s.sum),  I(s.min),  I(s.max)});
  }
  return rows;
}

std::vector<Row> FillTraceSpans(Engine*) {
  std::vector<Row> rows;
  for (const trace::SpanRecord& s : trace::Tracer::Global().Snapshot()) {
    rows.push_back(Row{S(s.engine),
                S(s.activity),
                S(s.name),
                S(s.detail),
                I(s.start_ns),
                I(s.dur_ns),
                I(static_cast<int64_t>(s.tid)),
                I(static_cast<int64_t>(s.depth))});
  }
  return rows;
}

/// Live in-flight statements (the sys.dm_exec_requests analog). Snapshots
/// the process-wide registry and filters to this engine's requests,
/// skipping self-excluded (sys-touching) statements and — belt on top of
/// that suspender — anything running under the scanning thread's own
/// activity id, so a DMV scan never lists itself even mid-registration.
/// A request completing mid-snapshot is fine: the shared_ptr keeps its
/// final counters readable.
std::vector<Row> FillRequests(Engine* engine) {
  std::vector<Row> rows;
  const std::string self_activity = activity::Current();
  const std::vector<std::shared_ptr<sysview::RequestState>> requests =
      sysview::RequestRegistry::Global().Snapshot();
  // Read after the snapshot, so a request that registers meanwhile cannot
  // show a start time later than "now".
  const int64_t now_ns = fastclock::NowNs();
  for (const std::shared_ptr<sysview::RequestState>& req : requests) {
    if (req->exclude.load(std::memory_order_relaxed)) continue;
    if (!self_activity.empty() && req->activity_id == self_activity) continue;
    if (req->engine != engine->name()) continue;
    int64_t rows_processed = 0;
    int64_t batches = 0;
    int64_t spills = 0;
    int percent = 0;
    if (std::shared_ptr<const OperatorProfile> profile = req->profile()) {
      rows_processed = sysview::RowsProcessed(*profile);
      batches = sysview::BatchesProcessed(*profile);
      spills = FoldExecStats(*profile).spills;
      percent = sysview::PercentComplete(*profile);
    }
    const waits::WaitTotals wait_totals = waits::Snapshot(req->waits);
    rows.push_back(Row{I(req->request_id),
                S(req->engine),
                S(req->activity_id),
                S(req->statement),
                S(sysview::PhaseName(req->Phase())),
                I(now_ns - req->start_ns),
                I(req->dop),
                I(rows_processed),
                I(batches),
                I(wait_totals.total_count()),
                I(wait_totals.total_ns()),
                S(wait_totals.TopType()),
                I(req->memory.current()),
                I(percent),
                I(req->requested_grant_bytes.load(std::memory_order_relaxed)),
                I(req->granted_bytes.load(std::memory_order_relaxed)),
                I(spills)});
  }
  return rows;
}

/// Point-in-time memory grants (the sys.dm_exec_query_memory_grants
/// analog): every statement of this engine currently holding a grant or
/// queued in the resource semaphore, with live used/peak memory read from
/// the request the grant entry points at. The scanning statement itself is
/// excluded (sys scans bypass admission and carry no grant anyway).
std::vector<Row> FillMemoryGrants(Engine* engine) {
  std::vector<Row> rows;
  const std::string self_activity = activity::Current();
  for (const governor::GrantRow& g : governor::Governor::Global().Snapshot()) {
    const sysview::RequestState& req = *g.request;
    if (req.engine != engine->name()) continue;
    if (!self_activity.empty() && req.activity_id == self_activity) continue;
    rows.push_back(Row{I(g.grant_id),
                S(req.engine),
                S(req.activity_id),
                S(req.statement),
                I(req.dop),
                I(g.is_queued ? 1 : 0),
                I(g.requested_bytes),
                I(g.granted_bytes),
                I(g.wait_ns),
                I(g.degraded ? 1 : 0),
                I(req.memory.current()),
                I(req.memory.peak())});
  }
  return rows;
}

std::vector<Row> FillWaitStats(Engine*) {
  std::vector<Row> rows;
  for (const waits::WaitStatRow& w : waits::GlobalSnapshot()) {
    rows.push_back(Row{S(w.wait_type), I(w.waiting_tasks_count),
                I(w.wait_time_ns), I(w.max_wait_time_ns)});
  }
  return rows;
}

Row DistributedRequestRow(const sysview::RequestState& rec,
                          const std::string& server, const char* role) {
  const waits::WaitTotals waits = waits::Snapshot(rec.waits);
  return Row{S(rec.activity_id),
             S(server),
             S(role),
             I(rec.execution_id),
             S(rec.statement_type),
             S(rec.statement),
             I(rec.duration_ns),
             I(rec.ok ? 1 : 0),
             I(rec.rows),
             I(waits.total_ns()),
             S(waits.TopType())};
}

/// The member Engine behind a linked-server source, if there is one:
/// either a bare in-process EngineDataSource or one wrapped by the
/// LinkedDataSource network decorator. Null for foreign providers.
Engine* MemberEngine(DataSource* source) {
  if (auto* linked = dynamic_cast<LinkedDataSource*>(source)) {
    source = linked->inner();
  }
  if (auto* es = dynamic_cast<EngineDataSource*>(source)) {
    return es->engine();
  }
  return nullptr;
}

/// Cross-engine correlation view: one "coordinator" row per execution this
/// engine recorded, plus one "member" row for every execution a linked
/// engine's query store recorded under the same activity id (i.e. work it
/// performed on this engine's behalf). Join key: activity_id.
std::vector<Row> FillDistributedRequests(Engine* engine) {
  std::vector<Row> rows;
  std::set<std::string> activities;
  for (const std::shared_ptr<const sysview::RequestState>& rec :
       engine->query_store()->Snapshot()) {
    if (rec->activity_id.empty()) continue;
    activities.insert(rec->activity_id);
    rows.push_back(DistributedRequestRow(*rec, "(local)", "coordinator"));
  }
  Catalog* catalog = engine->catalog();
  for (const std::string& server : catalog->LinkedServerNames()) {
    if (server == kSysServerName) continue;  // The DMV source itself.
    auto source = catalog->GetLinkedServer(server);
    if (!source.ok()) continue;
    Engine* member = MemberEngine(*source);
    if (member == nullptr || member == engine) continue;
    for (const std::shared_ptr<const sysview::RequestState>& rec :
         member->query_store()->Snapshot()) {
      if (activities.count(rec->activity_id) == 0) continue;
      rows.push_back(DistributedRequestRow(*rec, server, "member"));
    }
  }
  return rows;
}

/// One system view: its name, its schema, and how a scan fills it.
struct DmvTableDef {
  const char* name;
  Schema (*schema)();
  std::vector<Row> (*fill)(Engine* engine);
};

const DmvTableDef kTables[] = {
    {"dm_exec_query_stats", QueryStatsSchema, FillQueryStats},
    {"dm_exec_operator_stats", OperatorStatsSchema, FillOperatorStats},
    {"dm_exec_requests", RequestsSchema, FillRequests},
    {"dm_exec_query_memory_grants", MemoryGrantsSchema, FillMemoryGrants},
    {"dm_exec_distributed_requests", DistributedRequestsSchema,
     FillDistributedRequests},
    {"dm_link_stats", LinkStatsSchema, FillLinkStats},
    {"dm_plan_cache", PlanCacheSchema, FillPlanCache},
    {"dm_metrics", MetricsSchema, FillMetrics},
    {"dm_os_wait_stats", WaitStatsSchema, FillWaitStats},
    {"dm_trace_spans", TraceSpansSchema, FillTraceSpans},
};

/// Session over the DMVs. Stateless (every OpenRowset snapshots afresh), so
/// one cached catalog session serves concurrent scans.
class DmvSession : public Session {
 public:
  explicit DmvSession(Engine* engine) : engine_(engine) {}

  Result<std::unique_ptr<Rowset>> OpenRowset(
      const std::string& table) override {
    for (const DmvTableDef& def : kTables) {
      if (!EqualsIgnoreCase(table, def.name)) continue;
      return std::unique_ptr<Rowset>(
          new VectorRowset(def.schema(), def.fill(engine_)));
    }
    return Status::NotFound("system view '" + table + "' not found");
  }

  Result<std::vector<TableMetadata>> ListTables() override {
    std::vector<TableMetadata> out;
    out.reserve(std::size(kTables));
    for (const DmvTableDef& def : kTables) {
      TableMetadata meta;
      meta.name = def.name;
      meta.schema = def.schema();
      // Snapshot tables have no stable cardinality; a small constant keeps
      // the optimizer's costing sane without claiming precision.
      meta.cardinality = 64;
      out.push_back(std::move(meta));
    }
    return out;
  }

 private:
  Engine* engine_;
};

}  // namespace

ProviderCapabilities DmvCapabilities() {
  ProviderCapabilities caps;
  caps.provider_name = "DHQP-DMV";
  caps.source_type = "System views";
  caps.query_language = "none";
  caps.sql_support = SqlSupportLevel::kNone;
  caps.supports_command = false;
  caps.supports_schema_rowset = true;
  return caps;
}

DmvDataSource::DmvDataSource(Engine* engine)
    : engine_(engine), caps_(DmvCapabilities()) {}

Result<std::unique_ptr<Session>> DmvDataSource::CreateSession() {
  return std::unique_ptr<Session>(new DmvSession(engine_));
}

}  // namespace dhqp
