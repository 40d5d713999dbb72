#include "src/core/engine.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <set>

#include "src/common/activity.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/common/waits.h"
#include "src/connectors/dmv_provider.h"
#include "src/core/governor.h"
#include "src/optimizer/normalize.h"
#include "src/optimizer/optimizer.h"
#include "src/sql/binder.h"
#include "src/sql/parser.h"
#include "src/sysview/requests.h"

namespace dhqp {

namespace {

// Compiled plans the cache holds before it starts over.
constexpr size_t kPlanCacheCapacity = 256;

// True if any table reference in the FROM tree names the reserved system
// source (as server part, or as catalog/schema shorthand: sys..dm_x).
bool TableRefTouchesSys(const TableRef* ref) {
  if (ref == nullptr) return false;
  switch (ref->kind) {
    case TableRef::Kind::kNamed:
      return EqualsIgnoreCase(ref->name.server, kSysServerName) ||
             EqualsIgnoreCase(ref->name.catalog, kSysServerName) ||
             EqualsIgnoreCase(ref->name.schema, kSysServerName);
    case TableRef::Kind::kJoin:
      return TableRefTouchesSys(ref->left.get()) ||
             TableRefTouchesSys(ref->right.get());
    case TableRef::Kind::kOpenQuery:
      return EqualsIgnoreCase(ref->server, kSysServerName);
  }
  return false;
}

// AST-level DMV detection: catches explicitly sys-qualified statements
// before any plan-cache counter can tick. Bare DMV names (resolved through
// the catalog's fallback) are caught later by PlanTouchesSys.
bool StatementTouchesSys(const SelectStatement& stmt) {
  for (const auto& core : stmt.cores) {
    if (TableRefTouchesSys(core->from.get())) return true;
  }
  return false;
}

// Post-optimize DMV detection: authoritative — any scan in the physical
// plan resolved to the reserved system source (however the name was
// spelled). Walked once per compiled statement, in ExecuteSelect.
bool PlanTouchesSys(const PhysicalOpPtr& plan) {
  if (plan == nullptr) return false;
  if (EqualsIgnoreCase(plan->table.server_name, kSysServerName)) return true;
  for (const PhysicalOpPtr& child : plan->children) {
    if (PlanTouchesSys(child)) return true;
  }
  return false;
}

// Evaluates one VALUES expression (constants, @params, scalar functions).
Result<Value> EvalInsertExpr(const Expr& expr, Catalog* catalog,
                             const std::map<std::string, Value>& params,
                             int64_t current_date) {
  Binder binder(catalog);
  DHQP_ASSIGN_OR_RETURN(ScalarExprPtr bound, binder.BindValueExpr(expr));
  CompiledExpr program(*bound, EvalLayout{});
  program.Bind(params, current_date);
  return program.EvalRow(EvalInput{});
}

// `expr` cast to `type`, as an UPDATE assigns it to a column of that type.
ScalarExprPtr CastForColumn(ScalarExprPtr expr, DataType type) {
  auto cast = std::make_shared<ScalarExpr>();
  cast->kind = ScalarKind::kCast;
  cast->type = type;
  cast->cast_type = type;
  cast->args.push_back(std::move(expr));
  return cast;
}

// Expands (column-list, rows) into full schema-ordered rows; unlisted
// columns become NULL. An empty column list means positional assignment.
Result<std::vector<Row>> ShapeRows(const Schema& schema,
                                   const std::vector<std::string>& columns,
                                   const std::vector<Row>& rows) {
  std::vector<int> ordinals;
  if (columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      ordinals.push_back(static_cast<int>(i));
    }
  } else {
    for (const std::string& name : columns) {
      int ord = schema.FindColumn(name);
      if (ord < 0) {
        return Status::NotFound("INSERT column '" + name + "' not found");
      }
      ordinals.push_back(ord);
    }
  }
  std::vector<Row> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    if (row.size() != ordinals.size()) {
      return Status::InvalidArgument(
          "INSERT row has " + std::to_string(row.size()) + " values, " +
          std::to_string(ordinals.size()) + " expected");
    }
    Row shaped(schema.num_columns());
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      shaped[i] = Value::Null(schema.column(i).type);
    }
    for (size_t i = 0; i < ordinals.size(); ++i) {
      size_t ord = static_cast<size_t>(ordinals[i]);
      DHQP_ASSIGN_OR_RETURN(shaped[ord],
                            row[i].CastTo(schema.column(ord).type));
    }
    out.push_back(std::move(shaped));
  }
  return out;
}

// EXPLAIN and EXPLAIN ANALYZE results: one "plan" row per line of `text`.
std::unique_ptr<VectorRowset> PlanTextRowset(const std::string& text) {
  Schema schema;
  schema.AddColumn(ColumnDef{"plan", DataType::kString, false});
  std::vector<Row> rows;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    rows.push_back({Value::String(text.substr(start, end - start))});
    start = end + 1;
  }
  return std::make_unique<VectorRowset>(std::move(schema), std::move(rows));
}

}  // namespace

int64_t DefaultCurrentDate() { return CivilToDays(2004, 11, 15); }

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      query_store_(options_.query_store_capacity) {
  if (options_.current_date == 0) {
    options_.current_date = DefaultCurrentDate();
  }
  catalog_ = std::make_unique<Catalog>(&storage_);
  // Every engine carries its system views as a linked server: the DMVs are
  // just another provider, so the same SELECT machinery (and the same
  // four-part names, from a remote host) reads them.
  (void)catalog_->AddLinkedServer(kSysServerName,
                                  std::make_shared<DmvDataSource>(this),
                                  /*reserved=*/true);
}

Status Engine::AddLinkedServer(const std::string& server_name,
                               std::shared_ptr<DataSource> source) {
  DHQP_RETURN_NOT_OK(source->Initialize({{"linked_server", server_name}}));
  ++schema_version_;
  return catalog_->AddLinkedServer(server_name, std::move(source));
}

Status Engine::CreateFullTextIndex(const std::string& catalog_name,
                                   const std::string& table,
                                   const std::string& key_column,
                                   const std::string& text_column) {
  DHQP_ASSIGN_OR_RETURN(Table * t, storage_.GetTable(table));
  int key_ord = t->schema().FindColumn(key_column);
  int text_ord = t->schema().FindColumn(text_column);
  if (key_ord < 0 || text_ord < 0) {
    return Status::NotFound("full-text key/text column not found on " + table);
  }
  DHQP_RETURN_NOT_OK(
      fulltext_.CreateCatalog(catalog_name, table, key_column, text_column));
  std::vector<std::pair<int64_t, Row>> rows;
  t->ScanLive(&rows);
  for (const auto& [id, row] : rows) {
    const Value& text = row[static_cast<size_t>(text_ord)];
    if (text.is_null()) continue;
    DHQP_RETURN_NOT_OK(fulltext_.IndexEntry(
        catalog_name, row[static_cast<size_t>(key_ord)], text.string_value()));
  }
  fulltext_catalogs_.push_back(
      FullTextCatalogInfo{table, key_column, text_column, catalog_name});
  ++schema_version_;
  return Status::OK();
}

OptimizerOptions Engine::EffectiveOptimizerOptions() const {
  OptimizerOptions opts = options_.optimizer;
  // dop is the one exec knob the optimizer sees: it gates the exchange
  // enforcer, so it must flow into compilation (and the plan-cache key).
  opts.max_dop = options_.execution.dop;
  return opts;
}

OptimizerContext Engine::MakeOptimizerContext(ColumnRegistry* registry) {
  OptimizerContext ctx(catalog_.get(), registry, EffectiveOptimizerOptions());
  for (const FullTextCatalogInfo& info : fulltext_catalogs_) {
    ctx.AddFullTextCatalog(info);
  }
  return ctx;
}

namespace {

// The exec.* registry counter each ExecStats field publishes into.
struct ExecCounter {
  const char* name;
  int64_t ExecStats::*field;
};
constexpr ExecCounter kExecCounters[] = {
    {"exec.rows_output", &ExecStats::rows_output},
    {"exec.rows_from_remote", &ExecStats::rows_from_remote},
    {"exec.remote_commands", &ExecStats::remote_commands},
    {"exec.remote_opens", &ExecStats::remote_opens},
    {"exec.remote_fetches", &ExecStats::remote_fetches},
    {"exec.remote_batches", &ExecStats::remote_batches},
    {"exec.prefetch_stalls", &ExecStats::prefetch_stalls},
    {"exec.startup_skips", &ExecStats::startup_skips},
    {"exec.partitions_opened", &ExecStats::partitions_opened},
    {"exec.parallel_branches", &ExecStats::parallel_branches},
    {"exec.exchange_batches", &ExecStats::exchange_batches},
    {"exec.spool_rescans", &ExecStats::spool_rescans},
    {"exec.batches", &ExecStats::exec_batches},
    {"exec.remote_retries", &ExecStats::remote_retries},
    {"exec.remote_timeouts", &ExecStats::remote_timeouts},
    {"exec.faults_injected", &ExecStats::faults_injected},
    {"exec.members_skipped", &ExecStats::members_skipped},
    {"exec.spills", &ExecStats::spills},
    {"exec.spill_bytes", &ExecStats::spill_bytes},
};

// Publishes one statement's ExecStats into the process-wide metrics
// registry. Instrument pointers are resolved once (registrations are
// permanent).
void PublishExecMetrics(const ExecStats& stats) {
  static const auto counters = [] {
    std::array<metrics::Counter*, std::size(kExecCounters)> c{};
    for (size_t i = 0; i < c.size(); ++i) {
      c[i] = metrics::Registry::Global().GetCounter(kExecCounters[i].name);
    }
    return c;
  }();
  for (size_t i = 0; i < counters.size(); ++i) {
    counters[i]->Add(stats.*kExecCounters[i].field);
  }
}

}  // namespace

Result<QueryResult> Engine::Execute(
    const std::string& sql, const std::map<std::string, Value>& params) {
  // Distributed-request correlation: with no id on the thread this engine
  // is the coordinator and originates one; with an incoming id (a member
  // engine serving another engine's provider command, or a worker thread
  // that re-installed its query's id) the statement runs — and is recorded
  // — under the coordinator's id.
  const std::string& incoming = activity::Current();
  activity::Scope act(incoming.empty() ? activity::Generate(options_.name)
                                       : incoming);
  // Spans recorded while this statement runs — including on an in-process
  // member engine serving a provider command on this same thread — carry
  // the executing engine's name, so stitched traces attribute each span to
  // its engine.
  trace::EngineTagScope engine_tag(options_.name);
  // The statement's one record: visible in sys..dm_exec_requests for its
  // whole lifetime, then kept by the query store. The request owns the
  // per-query wait tally (worker threads — prefetch, exchange, Concat —
  // capture and re-install it, so every blocked interval on the
  // statement's behalf rolls up here and is readable mid-flight).
  sysview::RequestScope request(options_.name, activity::Current(), sql,
                                options_.execution.dop);
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    waits::ScopedQueryTally tally(&request.state()->waits);
    return ExecuteInternal(sql, params, request.state());
  }();
  if (!result.ok() && result.status().code() == StatusCode::kNetworkError) {
    // Link-down teardown (§4.2): a cached session over a dead link is
    // useless even once the link recovers — drop them all so the next
    // statement reconnects. Safe here: the executor joins every prefetch /
    // parallel-branch thread before ExecutePlan returns, so nothing still
    // holds a raw Session pointer.
    catalog_->DropRemoteSessions();
  }
  FinishStatement(sql, request.state(), &result);
  return result;
}

void Engine::FinishStatement(
    const std::string& sql,
    const std::shared_ptr<sysview::RequestState>& request,
    Result<QueryResult>* result) {
  struct Instruments {
    metrics::Counter* statements;
    metrics::Counter* failures;
    metrics::Counter* warnings;
    metrics::Counter* slow_queries;
    metrics::Counter* dml_statements;
    metrics::Counter* dml_rows_affected;
    metrics::Histogram* query_ns;
  };
  static const Instruments in = [] {
    metrics::Registry& reg = metrics::Registry::Global();
    Instruments i;
    i.statements = reg.GetCounter("exec.statements");
    i.failures = reg.GetCounter("exec.failed_statements");
    i.warnings = reg.GetCounter("exec.warnings");
    i.slow_queries = reg.GetCounter("exec.slow_queries");
    i.dml_statements = reg.GetCounter("exec.dml_statements");
    i.dml_rows_affected = reg.GetCounter("exec.dml_rows_affected");
    i.query_ns = reg.GetHistogram("engine.query_ns");
    return i;
  }();

  // The statement's counts settle once, onto its request, on success and
  // failure alike: the operator profile tree the executor counted in
  // (published before Open, final once the executor unwound) folds into
  // the ExecStats every surface below reads, and the wait tally is
  // quiescent.
  sysview::RequestState& req = *request;
  req.duration_ns = fastclock::NowNs() - req.start_ns;
  const std::shared_ptr<const OperatorProfile> profile = req.profile();
  req.exec_stats = profile != nullptr ? FoldExecStats(*profile) : ExecStats{};
  req.ok = result->ok();
  QueryResult* qr = req.ok ? &result->value() : nullptr;
  if (qr != nullptr) {
    qr->wait_totals = waits::Snapshot(req.waits);
    qr->exec_stats = req.exec_stats;
    qr->activity_id = req.activity_id;
  }
  // Self-exclusion: a statement that read the DMVs (request->exclude, set
  // by the AST gate or the post-optimize plan walk, whether or not the
  // statement then succeeded) must not itself show up in the query store,
  // the slow log, or the statement counters — otherwise observing the
  // system grows what it observes. Compile-only EXPLAIN executed nothing.
  if (req.exclude.load(std::memory_order_relaxed) ||
      req.statement_type == "explain") {
    return;
  }

  in.statements->Increment();
  if (!req.ok) in.failures->Increment();
  // One latency sample per counted statement: the same end-to-end duration
  // the query store records (parse through result shaping, governor queue
  // included).
  in.query_ns->Observe(req.duration_ns);
  PublishExecMetrics(req.exec_stats);

  const bool is_dml = req.statement_type == "insert" ||
                      req.statement_type == "update" ||
                      req.statement_type == "delete";
  if (qr != nullptr && is_dml) {
    in.dml_statements->Increment();
    in.dml_rows_affected->Add(qr->rows_affected);
  }

  if (qr != nullptr && options_.slow_query_ns > 0 &&
      req.duration_ns >= options_.slow_query_ns) {
    char head[96];
    std::snprintf(head, sizeof(head),
                  "slow query: %.3f ms (threshold %.3f ms)",
                  static_cast<double>(req.duration_ns) / 1e6,
                  static_cast<double>(options_.slow_query_ns) / 1e6);
    std::string warning(head);
    if (qr->profile != nullptr) {
      // The est-vs-actual profile is the first thing a slow-query
      // investigation wants; every executed SELECT carries one.
      warning += "\n" + RenderOperatorProfile(*qr->profile);
    }
    qr->warnings.push_back(std::move(warning));
    in.slow_queries->Increment();
  }
  if (qr != nullptr) {
    req.rows = qr->rowset != nullptr
                   ? static_cast<int64_t>(qr->rowset->rows().size())
                   : qr->rows_affected;
    req.warnings = static_cast<int64_t>(qr->warnings.size());
    in.warnings->Add(req.warnings);
  } else {
    req.error = StatusCodeName(result->status().code());
  }
  if (req.statement_type.empty()) req.statement_type = "invalid";
  req.fingerprint = sysview::FingerprintStatement(sql);
  query_store_.Record(request);
}

Result<QueryResult> Engine::ExecuteInternal(
    const std::string& sql, const std::map<std::string, Value>& params,
    const std::shared_ptr<sysview::RequestState>& request) {
  std::unique_ptr<Statement> stmt;
  {
    trace::Span span("engine.parse");
    DHQP_ASSIGN_OR_RETURN(stmt, Parser::Parse(sql));
  }
  std::string& type = request->statement_type;
  switch (stmt->kind) {
    case Statement::Kind::kSelect: {
      type = stmt->explain_analyze ? "explain analyze"
             : stmt->explain       ? "explain"
                                   : "select";
      // The AST half of the sys decision: sys-qualified statements bypass
      // the plan cache entirely (empty cache key), so DMV reads never
      // pollute hit/miss counters or show up in dm_plan_cache. ExecuteSelect
      // walks the optimized plan for bare DMV names.
      const bool sys = StatementTouchesSys(*stmt->select);
      if (sys) request->exclude.store(true, std::memory_order_relaxed);
      const std::string cache_key = sys ? "" : sql;
      if (stmt->explain_analyze) {
        // EXPLAIN ANALYZE SELECT ...: execute, then render the profile's
        // estimated-vs-actual per operator.
        DHQP_ASSIGN_OR_RETURN(
            QueryResult result,
            ExecuteSelect(*stmt->select, params, /*execute=*/true, cache_key,
                          request));
        result.rowset = PlanTextRowset(RenderOperatorProfile(*result.profile));
        return std::move(result);
      }
      if (stmt->explain) {
        // EXPLAIN SELECT ...: compile only; nothing executed, so the query
        // store skips it. The plan renders as text rows with the same
        // pre-order operator ids EXPLAIN ANALYZE uses.
        DHQP_ASSIGN_OR_RETURN(
            QueryResult prepared,
            ExecuteSelect(*stmt->select, params, /*execute=*/false, "",
                          request));
        int next_id = 1;
        prepared.rowset =
            PlanTextRowset(prepared.plan->ToStringWithIds(0, &next_id));
        return std::move(prepared);
      }
      return ExecuteSelect(*stmt->select, params, /*execute=*/true, cache_key,
                           request);
    }
    case Statement::Kind::kCreateTable:
      type = "create table";
      return ExecuteCreateTable(*stmt->create_table);
    case Statement::Kind::kCreateIndex:
      type = "create index";
      return ExecuteCreateIndex(*stmt->create_index);
    case Statement::Kind::kCreateView:
      type = "create view";
      return ExecuteCreateView(*stmt->create_view);
    case Statement::Kind::kInsert:
      type = "insert";
      return ExecuteInsert(*stmt->insert, params);
    case Statement::Kind::kDelete:
      type = "delete";
      return ExecuteDelete(*stmt->delete_stmt, params);
    case Statement::Kind::kUpdate:
      type = "update";
      return ExecuteUpdate(*stmt->update, params);
    case Statement::Kind::kDrop: {
      type = "drop";
      ++schema_version_;
      if (stmt->drop->target == DropStatement::Target::kTable) {
        DHQP_RETURN_NOT_OK(storage_.DropTable(stmt->drop->name));
      } else {
        DHQP_RETURN_NOT_OK(catalog_->DropView(stmt->drop->name));
      }
      return QueryResult{};
    }
  }
  return Status::Internal("unknown statement kind");
}

Result<std::vector<std::pair<int64_t, Row>>> Engine::MatchDmlRows(
    Table* table, const ExprPtr& where,
    const std::map<std::string, Value>& params,
    std::vector<int>* column_ids) {
  std::vector<std::pair<int64_t, Row>> live;
  table->ScanLive(&live);
  if (where == nullptr) return live;

  Binder binder(catalog_.get());
  DHQP_ASSIGN_OR_RETURN(
      ScalarExprPtr pred,
      binder.BindSingleTableExpr(*where, table->schema(), table->name(),
                                 column_ids));
  std::map<int, int> positions;
  for (size_t i = 0; i < column_ids->size(); ++i) {
    positions[(*column_ids)[i]] = static_cast<int>(i);
  }
  std::vector<Row> rows;
  rows.reserve(live.size());
  for (auto& entry : live) rows.push_back(std::move(entry.second));
  CompiledExpr program(*pred, EvalLayout{&positions});
  program.Bind(params, options_.current_date);
  SelectionVector pass;
  DHQP_RETURN_NOT_OK(
      program.Select(EvalInput{&rows}, nullptr, rows.size(), &pass));
  std::vector<std::pair<int64_t, Row>> matched;
  matched.reserve(pass.size());
  for (int i : pass) {
    const size_t r = static_cast<size_t>(i);
    matched.emplace_back(live[r].first, std::move(rows[r]));
  }
  return matched;
}

Result<QueryResult> Engine::ExecuteDelete(
    const DeleteStatement& stmt, const std::map<std::string, Value>& params) {
  if (stmt.table.has_server()) {
    return Status::NotSupported(
        "DELETE against linked servers is not supported; run it on the "
        "remote engine or via pass-through");
  }
  DHQP_ASSIGN_OR_RETURN(Table * table, storage_.GetTable(stmt.table.table));
  std::vector<int> column_ids;
  DHQP_ASSIGN_OR_RETURN(auto matched,
                        MatchDmlRows(table, stmt.where, params, &column_ids));
  QueryResult result;
  for (const auto& [id, row] : matched) {
    DHQP_RETURN_NOT_OK(storage_.DeleteRow(-1, stmt.table.table, id));
    ++result.rows_affected;
  }
  return std::move(result);
}

Result<QueryResult> Engine::ExecuteUpdate(
    const UpdateStatement& stmt, const std::map<std::string, Value>& params) {
  if (stmt.table.has_server()) {
    return Status::NotSupported(
        "UPDATE against linked servers is not supported; run it on the "
        "remote engine or via pass-through");
  }
  DHQP_ASSIGN_OR_RETURN(Table * table, storage_.GetTable(stmt.table.table));
  const Schema& schema = table->schema();

  // Bind assignment targets and value expressions (old row values visible).
  std::vector<int> column_ids;
  Binder binder(catalog_.get());
  std::vector<std::pair<int, ScalarExprPtr>> assignments;
  for (const auto& [column, expr] : stmt.assignments) {
    int ord = schema.FindColumn(column);
    if (ord < 0) {
      return Status::NotFound("UPDATE column '" + column + "' not found");
    }
    DHQP_ASSIGN_OR_RETURN(
        ScalarExprPtr bound,
        binder.BindSingleTableExpr(*expr, schema, table->name(), &column_ids));
    assignments.emplace_back(ord, std::move(bound));
  }
  DHQP_ASSIGN_OR_RETURN(auto matched,
                        MatchDmlRows(table, stmt.where, params, &column_ids));

  std::map<int, int> positions;
  for (size_t i = 0; i < column_ids.size(); ++i) {
    positions[column_ids[i]] = static_cast<int>(i);
  }
  // Each assignment is compiled with its cast to the column type, and
  // evaluated over all matched rows; rows before the first failing one are
  // still updated, as row by row.
  std::vector<Row> rows;
  rows.reserve(matched.size());
  for (const auto& entry : matched) rows.push_back(entry.second);
  std::vector<CompiledExpr> programs;
  programs.reserve(assignments.size());
  for (const auto& [ord, expr] : assignments) {
    programs.emplace_back(
        *CastForColumn(expr, schema.column(static_cast<size_t>(ord)).type),
        EvalLayout{&positions});
    programs.back().Bind(params, options_.current_date);
  }
  size_t n = rows.size();
  const Status failed = EvalEach(&programs, EvalInput{&rows}, &n);

  // Update as delete + reinsert (constraints and indexes re-validated); on
  // a constraint violation the original row is restored.
  QueryResult result;
  for (size_t r = 0; r < n; ++r) {
    const auto& [id, row] = matched[r];
    Row updated = row;
    for (size_t j = 0; j < assignments.size(); ++j) {
      updated[static_cast<size_t>(assignments[j].first)] = programs[j].Take(r);
    }
    DHQP_RETURN_NOT_OK(storage_.DeleteRow(-1, stmt.table.table, id));
    auto inserted = storage_.InsertRow(-1, stmt.table.table, updated);
    if (!inserted.ok()) {
      // Restore the original row, then surface the error.
      (void)storage_.InsertRow(-1, stmt.table.table, row);
      return inserted.status();
    }
    ++result.rows_affected;
  }
  DHQP_RETURN_NOT_OK(failed);
  return std::move(result);
}

Result<QueryResult> Engine::Prepare(
    const std::string& sql, const std::map<std::string, Value>& params) {
  DHQP_ASSIGN_OR_RETURN(auto stmt, Parser::Parse(sql));
  if (stmt->kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("Prepare supports SELECT statements");
  }
  // Compile only, outside Execute: an unregistered request takes the
  // compile bookkeeping.
  return ExecuteSelect(*stmt->select, params, /*execute=*/false, "",
                       std::make_shared<sysview::RequestState>());
}

Result<std::string> Engine::Explain(const std::string& sql,
                                    const std::map<std::string, Value>& params) {
  DHQP_ASSIGN_OR_RETURN(QueryResult prepared, Prepare(sql, params));
  int next_id = 1;
  std::string out = prepared.plan->ToStringWithIds(0, &next_id);
  out += "phases: " + std::to_string(prepared.opt_stats.phases_run) +
         " (stopped after " + prepared.opt_stats.phase_name + ")";
  out += ", groups: " + std::to_string(prepared.opt_stats.groups);
  out += ", exprs: " + std::to_string(prepared.opt_stats.group_exprs);
  out += ", rules applied: " + std::to_string(prepared.opt_stats.rules_applied);
  out += ", est cost: " + std::to_string(prepared.opt_stats.best_cost) + "\n";
  return out;
}

Result<QueryResult> Engine::RunCachedPlan(
    const CachedPlan& cached, const std::map<std::string, Value>& params,
    const std::shared_ptr<sysview::RequestState>& request) {
  trace::Span span("engine.execute");
  // Workload governor: admission control sits between optimize and execute.
  // The statement queues (phase `queued`, RESOURCE_SEMAPHORE waits) until
  // its estimated grant fits the memory budget; the grant is RAII-released
  // exactly once on every exit path out of this function, including error
  // returns and fault aborts mid-execution. The governor surfaces the grant
  // on the request (dm_exec_requests) while it is held.
  request->SetPhase(sysview::RequestPhase::kQueued);
  governor::GovernorOptions gopts;
  gopts.max_server_memory_bytes = options_.max_server_memory_bytes;
  gopts.max_grant_per_query_bytes = options_.max_grant_per_query_bytes;
  gopts.max_concurrent_grants = options_.max_concurrent_grants;
  gopts.grant_timeout_ms = options_.grant_timeout_ms;
  gopts.min_grant_bytes = options_.min_grant_bytes;
  // System-view scans bypass admission (like DAC in SQL Server): the
  // monitoring path must stay responsive when the semaphore is saturated
  // with queued user statements.
  governor::MemoryGrant grant;
  if (!request->exclude.load(std::memory_order_relaxed)) {
    grant = governor::Governor::Global().Acquire(
        gopts, governor::EstimateGrantBytes(cached.plan, options_.execution),
        request);
  }
  request->SetPhase(sysview::RequestPhase::kExecute);
  ExecContext ectx;
  ectx.request = request.get();
  ectx.catalog = catalog_.get();
  ectx.fulltext = &fulltext_;
  ectx.params = params;
  ectx.current_date = options_.current_date;
  ectx.options = options_.execution;
  // Buffering operators and queue stashes charge the request's query-wide
  // tracker, so dm_exec_requests reports one live memory_bytes per query;
  // grant enforcement reads the same tracker.
  ectx.memory = &request->memory;
  ectx.grant_bytes = grant.active() ? grant.granted_bytes() : 0;
  ectx.spill_dir = options_.spill_directory;
  DHQP_ASSIGN_OR_RETURN(std::vector<Row> rows,
                        ExecutePlan(cached.plan, &ectx));
  // Peak query memory: visible as exec.memory_bytes after the statement
  // (the live view is dm_exec_requests). Last-writer-wins is the usual
  // gauge semantic.
  static metrics::Gauge* mem_gauge =
      metrics::Registry::Global().GetGauge("exec.memory_bytes");
  mem_gauge->Set(request->memory.peak());

  // Align output columns with the statement's select-list order/names (the
  // plan may carry extra hidden columns or a different physical order).
  QueryResult result;
  result.plan = cached.plan;
  result.opt_stats = cached.opt_stats;
  Schema schema;
  for (size_t i = 0; i < cached.output_cols.size(); ++i) {
    schema.AddColumn(ColumnDef{cached.output_names[i],
                               cached.registry->TypeOf(cached.output_cols[i]),
                               true});
  }
  const std::vector<int>& plan_cols = cached.plan->output_cols;
  if (plan_cols != cached.output_cols) {
    std::vector<int> positions;
    for (int col : cached.output_cols) {
      auto it = std::find(plan_cols.begin(), plan_cols.end(), col);
      if (it == plan_cols.end()) {
        return Status::Internal("plan lost output column #" +
                                std::to_string(col));
      }
      positions.push_back(static_cast<int>(it - plan_cols.begin()));
    }
    for (Row& row : rows) {
      Row out;
      out.reserve(positions.size());
      for (int p : positions) out.push_back(row[static_cast<size_t>(p)]);
      row = std::move(out);
    }
  }
  result.rowset =
      std::make_unique<VectorRowset>(std::move(schema), std::move(rows));
  result.warnings = std::move(ectx.warnings);
  result.profile = std::move(ectx.profile);
  return std::move(result);
}

Result<QueryResult> Engine::ExecuteSelect(
    const SelectStatement& stmt, const std::map<std::string, Value>& params,
    bool execute, const std::string& cache_key,
    const std::shared_ptr<sysview::RequestState>& request) {
  // Plan-cache hit: re-execute the compiled plan with fresh parameters.
  // Startup filters keep parameterized plans correct for any value (§4.1.5).
  // Optimizer settings are part of the key: a plan compiled under different
  // options (the ablation benches flip them) must not be reused.
  bool use_cache = execute && options_.enable_plan_cache && !cache_key.empty();
  request->plan_cacheable = use_cache;
  const PlanKey full_key{cache_key, EffectiveOptimizerOptions()};
  if (use_cache) {
    // The entry is copied out under the lock (the members are shared_ptrs
    // and small vectors) so a concurrent DMV snapshot — or a capacity
    // flush on another statement — cannot invalidate what we execute.
    bool hit = false;
    CachedPlan cached;
    {
      auto lock = waits::LockRecordingWait(plan_cache_mu_,
                                           waits::WaitType::kPlanCacheMutex);
      auto it = plan_cache_.find(full_key);
      if (it != plan_cache_.end()) {
        if (it->second.schema_version ==
            schema_version_.load(std::memory_order_relaxed)) {
          ++it->second.hits;
          cached = it->second;
          hit = true;
        } else {
          plan_cache_.erase(it);
        }
      }
    }
    if (hit) {
      metrics::Registry::Global()
          .GetCounter("engine.plan_cache.hit")
          ->Increment();
      auto result = RunCachedPlan(cached, params, request);
      if (result.ok()) {
        request->plan_cache_hit = true;
        result.value().plan_cache_hit = true;
        return result;
      }
      // A link failure is not plan staleness: the retry policy already
      // ran at the link layer, recompiling cannot reach an unreachable
      // server, and silently re-executing could turn a mid-stream member
      // failure into a clean-looking skip. Surface it as-is.
      if (result.status().code() == StatusCode::kNetworkError) {
        return result;
      }
      // A cached plan can go stale in ways version bumps don't cover
      // (e.g. a remote server changed behind its provider): drop it and
      // recompile below.
      auto lock = waits::LockRecordingWait(plan_cache_mu_,
                                           waits::WaitType::kPlanCacheMutex);
      plan_cache_.erase(full_key);
    }
  }
  if (use_cache) {
    metrics::Registry::Global()
        .GetCounter("engine.plan_cache.miss")
        ->Increment();
  }

  for (int attempt = 0;; ++attempt) {
    Binder binder(catalog_.get());
    BoundStatement bound;
    {
      trace::Span span("engine.bind");
      request->SetPhase(sysview::RequestPhase::kBind);
      DHQP_ASSIGN_OR_RETURN(bound, binder.BindSelect(stmt));
    }
    OptimizerContext octx = MakeOptimizerContext(bound.registry.get());
    OptimizeResult optimized;
    {
      trace::Span span("engine.optimize");
      request->SetPhase(sysview::RequestPhase::kOptimize);
      LogicalOpPtr normalized = Normalize(bound.root, &octx);
      Optimizer optimizer(&octx);
      DHQP_ASSIGN_OR_RETURN(optimized,
                            optimizer.Optimize(normalized, bound.order_by));
    }
    // The plan half of the sys decision: a bare DMV name resolved through
    // the catalog's sys fallback slips past the AST check; the plan walk is
    // authoritative. Admission, the plan-cache insert below and
    // FinishStatement read the flag.
    if (!request->exclude.load(std::memory_order_relaxed) &&
        PlanTouchesSys(optimized.plan)) {
      request->exclude.store(true, std::memory_order_relaxed);
    }

    if (!execute) {
      QueryResult result;
      result.plan = optimized.plan;
      result.opt_stats = optimized.stats;
      return std::move(result);
    }

    // Delayed schema validation (§4.1.5): check cached remote metadata at
    // execution time; on drift, recompile once against fresh metadata.
    if (options_.delayed_schema_validation && attempt == 0) {
      DHQP_ASSIGN_OR_RETURN(bool valid, ValidateRemoteSchemas(optimized.plan));
      if (!valid) {
        catalog_->InvalidateCaches();
        continue;
      }
    }

    CachedPlan compiled;
    compiled.plan = optimized.plan;
    compiled.output_cols = bound.output_cols;
    compiled.output_names = bound.output_names;
    compiled.registry = bound.registry;
    compiled.opt_stats = optimized.stats;
    compiled.schema_version = schema_version_.load(std::memory_order_relaxed);
    compiled.statement = cache_key;
    DHQP_ASSIGN_OR_RETURN(QueryResult result,
                          RunCachedPlan(compiled, params, request));
    // A plan that reads the system views is never cached: a bare DMV name
    // slips past the AST check, and caching it would let observation
    // pollute dm_plan_cache.
    if (use_cache && !request->exclude.load(std::memory_order_relaxed)) {
      auto lock = waits::LockRecordingWait(plan_cache_mu_,
                                           waits::WaitType::kPlanCacheMutex);
      if (plan_cache_.size() >= kPlanCacheCapacity) {
        plan_cache_.clear();  // Crude but bounded; capacity is generous.
      }
      plan_cache_.emplace(full_key, std::move(compiled));
    }
    return std::move(result);
  }
}

std::vector<Engine::PlanCacheEntry> Engine::PlanCacheSnapshot() const {
  std::vector<PlanCacheEntry> out;
  const uint64_t current = schema_version_.load(std::memory_order_relaxed);
  auto lock =
      waits::LockRecordingWait(plan_cache_mu_, waits::WaitType::kPlanCacheMutex);
  out.reserve(plan_cache_.size());
  for (const auto& [key, cached] : plan_cache_) {
    PlanCacheEntry e;
    e.statement = cached.statement;
    e.schema_version = cached.schema_version;
    e.hits = cached.hits;
    e.est_cost = cached.opt_stats.best_cost;
    e.valid = cached.schema_version == current;
    out.push_back(std::move(e));
  }
  return out;
}

Result<bool> Engine::ValidateRemoteSchemas(const PhysicalOpPtr& plan) {
  switch (plan->kind) {
    case PhysicalOpKind::kRemoteScan:
    case PhysicalOpKind::kRemoteRange:
    case PhysicalOpKind::kRemoteFetch: {
      ObjectName name;
      name.server = plan->table.server_name;
      name.table = plan->table.metadata.name;
      DHQP_ASSIGN_OR_RETURN(ResolvedTable fresh,
                            catalog_->ResolveTable(name, /*refresh=*/true));
      if (!fresh.metadata.schema.Equals(plan->table.metadata.schema)) {
        return false;
      }
      break;
    }
    default:
      break;
  }
  for (const PhysicalOpPtr& child : plan->children) {
    DHQP_ASSIGN_OR_RETURN(bool ok, ValidateRemoteSchemas(child));
    if (!ok) return false;
  }
  return true;
}

Result<QueryResult> Engine::ExecuteCreateTable(
    const CreateTableStatement& stmt) {
  Schema schema;
  std::string pk_column;
  for (const ColumnDefAst& col : stmt.columns) {
    schema.AddColumn(ColumnDef{col.name, col.type, !col.not_null});
    if (col.primary_key) {
      if (!pk_column.empty()) {
        return Status::NotSupported("composite PRIMARY KEY via column syntax");
      }
      pk_column = col.name;
    }
  }
  ++schema_version_;
  DHQP_ASSIGN_OR_RETURN(Table * table, storage_.CreateTable(stmt.name, schema));
  for (const ExprPtr& check : stmt.checks) {
    DHQP_ASSIGN_OR_RETURN(CheckConstraint bound,
                          Binder::BindCheckConstraint(*check, schema));
    DHQP_RETURN_NOT_OK(table->AddCheckConstraint(std::move(bound)));
  }
  if (!pk_column.empty()) {
    DHQP_RETURN_NOT_OK(
        table->CreateIndex("pk_" + stmt.name, {pk_column}, /*unique=*/true));
  }
  return QueryResult{};
}

Result<QueryResult> Engine::ExecuteCreateIndex(
    const CreateIndexStatement& stmt) {
  ++schema_version_;
  DHQP_ASSIGN_OR_RETURN(Table * table, storage_.GetTable(stmt.table));
  DHQP_RETURN_NOT_OK(table->CreateIndex(stmt.name, stmt.columns, stmt.unique));
  return QueryResult{};
}

Result<QueryResult> Engine::ExecuteCreateView(
    const CreateViewStatement& stmt) {
  ++schema_version_;
  DHQP_RETURN_NOT_OK(catalog_->CreateView(stmt.name, stmt.body_sql));
  return QueryResult{};
}

Result<QueryResult> Engine::ExecuteInsert(
    const InsertStatement& stmt, const std::map<std::string, Value>& params) {
  // Evaluate the VALUES rows (constants, parameters, scalar functions).
  std::vector<Row> rows;
  for (const auto& exprs : stmt.rows) {
    Row row;
    for (const ExprPtr& e : exprs) {
      DHQP_ASSIGN_OR_RETURN(Value v, EvalInsertExpr(*e, catalog_.get(), params,
                                                    options_.current_date));
      row.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
  }

  QueryResult result;
  // Remote table?
  if (stmt.table.has_server()) {
    DHQP_ASSIGN_OR_RETURN(ResolvedTable resolved,
                          catalog_->ResolveTable(stmt.table));
    DHQP_ASSIGN_OR_RETURN(std::vector<Row> shaped,
                          ShapeRows(resolved.metadata.schema, stmt.columns,
                                    rows));
    DHQP_ASSIGN_OR_RETURN(Session * session,
                          catalog_->GetSession(resolved.source_id));
    DHQP_ASSIGN_OR_RETURN(result.rows_affected,
                          session->InsertRows(stmt.table.table, shaped));
    return std::move(result);
  }
  // Partitioned view?
  const ViewDef* view = catalog_->FindView(stmt.table.table);
  if (view != nullptr) {
    DHQP_ASSIGN_OR_RETURN(result.rows_affected,
                          InsertIntoPartitionedView(*view, stmt.columns, rows));
    return std::move(result);
  }
  // Local table.
  DHQP_ASSIGN_OR_RETURN(Table * table, storage_.GetTable(stmt.table.table));
  DHQP_ASSIGN_OR_RETURN(std::vector<Row> shaped,
                        ShapeRows(table->schema(), stmt.columns, rows));
  for (const Row& row : shaped) {
    DHQP_ASSIGN_OR_RETURN(int64_t id,
                          storage_.InsertRow(-1, stmt.table.table, row));
    (void)id;
    ++result.rows_affected;
  }
  return std::move(result);
}

Result<int64_t> Engine::InsertIntoPartitionedView(
    const ViewDef& view, const std::vector<std::string>& columns,
    const std::vector<Row>& rows) {
  DHQP_ASSIGN_OR_RETURN(auto parsed, Parser::ParseSelect(view.sql));
  // Each branch must be a single-table SELECT; gather member tables.
  struct Member {
    ResolvedTable table;
    ObjectName name;
  };
  std::vector<Member> members;
  for (const auto& core : parsed->cores) {
    if (core->from == nullptr || core->from->kind != TableRef::Kind::kNamed) {
      return Status::NotSupported(
          "INSERT through views requires single-table UNION ALL branches");
    }
    Member member;
    member.name = core->from->name;
    DHQP_ASSIGN_OR_RETURN(member.table, catalog_->ResolveTable(member.name));
    members.push_back(std::move(member));
  }
  if (members.empty()) {
    return Status::NotSupported("view has no members");
  }
  // The partitioning column: constrained by a CHECK in every member.
  std::string part_column;
  for (const CheckConstraint& check : members[0].table.checks) {
    bool in_all = true;
    for (const Member& m : members) {
      bool found = false;
      for (const CheckConstraint& c : m.table.checks) {
        if (EqualsIgnoreCase(c.column, check.column)) found = true;
      }
      in_all &= found;
    }
    if (in_all) {
      part_column = check.column;
      break;
    }
  }
  if (part_column.empty()) {
    return Status::NotSupported(
        "view members carry no common partitioning CHECK constraint");
  }

  int64_t inserted = 0;
  for (const Row& row : rows) {
    DHQP_ASSIGN_OR_RETURN(
        std::vector<Row> shaped,
        ShapeRows(members[0].table.metadata.schema, columns, {row}));
    int part_ord = members[0].table.metadata.schema.FindColumn(part_column);
    const Value& key = shaped[0][static_cast<size_t>(part_ord)];
    const Member* target = nullptr;
    for (const Member& m : members) {
      for (const CheckConstraint& c : m.table.checks) {
        if (EqualsIgnoreCase(c.column, part_column) &&
            !key.is_null() && c.domain.Contains(key)) {
          target = &m;
          break;
        }
      }
      if (target != nullptr) break;
    }
    if (target == nullptr) {
      return Status::ConstraintViolation(
          "value " + key.ToString() +
          " fits no member partition of view " + view.name);
    }
    if (target->table.source_id == kLocalSource) {
      DHQP_ASSIGN_OR_RETURN(
          int64_t id,
          storage_.InsertRow(-1, target->table.metadata.name, shaped[0]));
      (void)id;
    } else {
      DHQP_ASSIGN_OR_RETURN(Session * session,
                            catalog_->GetSession(target->table.source_id));
      DHQP_ASSIGN_OR_RETURN(
          int64_t n,
          session->InsertRows(target->table.metadata.name, {shaped[0]}));
      (void)n;
    }
    ++inserted;
  }
  return inserted;
}

Result<std::unique_ptr<Rowset>> Engine::ExecutePassThrough(
    const std::string& server, const std::string& query) {
  DHQP_ASSIGN_OR_RETURN(int source_id, catalog_->GetLinkedServerId(server));
  DHQP_ASSIGN_OR_RETURN(Session * session, catalog_->GetSession(source_id));
  DHQP_ASSIGN_OR_RETURN(auto command, session->CreateCommand());
  DHQP_RETURN_NOT_OK(command->SetText(query));
  return command->Execute();
}

Result<std::string> Engine::MergedChromeTrace(const std::string& activity_id) {
  std::vector<trace::MergedSpan> spans;
  // In-process engines share ONE global tracer, so the same span arrives
  // once from the local read and once per member whose sys path reaches
  // the same buffer — dedupe by identity fields.
  std::set<std::string> seen;
  const std::map<std::string, Value> params = {
      {"@aid", Value::String(activity_id)}};
  auto collect = [&](const std::string& prefix) -> Status {
    const std::string sql =
        "SELECT engine, activity_id, name, detail, start_ns, dur_ns, tid, "
        "depth FROM " +
        prefix + "sys..dm_trace_spans WHERE activity_id = @aid";
    DHQP_ASSIGN_OR_RETURN(QueryResult result, Execute(sql, params));
    if (result.rowset == nullptr) return Status::OK();
    for (const Row& row : result.rowset->rows()) {
      trace::MergedSpan s;
      s.engine = row[0].string_value();
      s.activity_id = row[1].string_value();
      s.name = row[2].string_value();
      s.detail = row[3].string_value();
      s.start_ns = row[4].int64_value();
      s.dur_ns = row[5].int64_value();
      s.tid = row[6].int64_value();
      s.depth = row[7].int64_value();
      std::string key = s.engine + "|" + std::to_string(s.tid) + "|" +
                        std::to_string(s.start_ns) + "|" +
                        std::to_string(s.dur_ns) + "|" + s.name;
      if (!seen.insert(std::move(key)).second) continue;
      spans.push_back(std::move(s));
    }
    return Status::OK();
  };
  // The coordinator's own spans must be readable; member pulls are
  // best-effort (a foreign provider with no sys path, or a member behind a
  // downed link, contributes nothing rather than failing the stitch).
  DHQP_RETURN_NOT_OK(collect(""));
  for (const std::string& server : catalog_->LinkedServerNames()) {
    if (EqualsIgnoreCase(server, kSysServerName)) continue;
    Status ignored = collect(server + ".");
    (void)ignored;
  }
  return trace::Tracer::DumpMergedChromeTrace(spans);
}

}  // namespace dhqp
