// Experiment E2 — remote access paths (§3.3 index provider, §4.1.2's
// "remote scan / remote range / remote fetch"). Sweeps predicate selectivity
// over an indexed remote table under three provider configurations:
//   query provider   -> pushed RemoteQuery,
//   index provider   -> RemoteRange / RemoteFetch (no ICommand),
//   simple provider  -> RemoteScan + local filter.
// Expected shape: index paths win at low selectivity; the scan price is flat;
// all converge as selectivity -> 1.

#include <chrono>

#include "bench/bench_util.h"

namespace dhqp {

using bench::HostWithRemote;
using bench::MustRun;

constexpr int kRows = 20000;

std::unique_ptr<HostWithRemote> BuildPaths(const std::string& kind) {
  ProviderCapabilities caps = SqlServerCapabilities();
  if (kind == "index") {
    caps.supports_command = false;
    caps.sql_support = SqlSupportLevel::kNone;
    caps.provider_name = "DHQP.IndexProvider";
  } else if (kind == "simple" || kind == "pipeline") {
    caps.supports_command = false;
    caps.sql_support = SqlSupportLevel::kNone;
    caps.supports_indexes = false;
    caps.supports_bookmarks = false;
    caps.provider_name = "DHQP.SimpleProvider";
  }
  // The pipeline experiment runs over a slower (WAN-ish) link, where
  // per-message latency dominates and overlapping it matters most.
  double latency_us = kind == "pipeline" ? 100 : 30;
  auto pair = bench::MakeHostWithRemote("rsrv", latency_us, caps);
  MustRun(pair->remote.get(), "CREATE TABLE t (k INT PRIMARY KEY, pay VARCHAR(40))");
  for (int base = 0; base < kRows; base += 1000) {
    std::string sql = "INSERT INTO t VALUES ";
    for (int i = 0; i < 1000; ++i) {
      int k = base + i;
      if (i) sql += ",";
      sql += "(" + std::to_string(k) + ",'payload-" + std::to_string(k) + "')";
    }
    MustRun(pair->remote.get(), sql);
  }
  return pair;
}

void RunPath(benchmark::State& state, const std::string& kind) {
  auto* pair = bench::CachedFixture<HostWithRemote>(kind, BuildPaths);
  int64_t cut = state.range(0);  // Rows selected by k < cut.
  std::string query =
      "SELECT COUNT(*) FROM rsrv.d.s.t WHERE k < " + std::to_string(cut);
  int64_t rows_shipped = 0, msgs = 0, fetches = 0;
  for (auto _ : state) {
    pair->link->ResetStats();
    QueryResult r = MustRun(pair->host.get(), query);
    rows_shipped = r.exec_stats.rows_from_remote;
    fetches = r.exec_stats.remote_fetches;
    msgs = pair->link->stats().messages;
    benchmark::DoNotOptimize(r);
  }
  state.counters["rows_shipped"] = static_cast<double>(rows_shipped);
  state.counters["link_messages"] = static_cast<double>(msgs);
  state.counters["bookmark_fetches"] = static_cast<double>(fetches);
}

void BM_Path_QueryProvider(benchmark::State& state) { RunPath(state, "query"); }
void BM_Path_IndexProvider(benchmark::State& state) { RunPath(state, "index"); }
void BM_Path_SimpleProvider(benchmark::State& state) { RunPath(state, "simple"); }

BENCHMARK(BM_Path_QueryProvider)
    ->Arg(10)->Arg(200)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Path_IndexProvider)
    ->Arg(10)->Arg(200)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Path_SimpleProvider)
    ->Arg(10)->Arg(200)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

// Block fetch vs row-at-a-time at the rowset layer: the same 5000 rows
// drained through a LinkedRowset in one-row NextBatch calls — one message
// per row, the OLE DB consumer that never asks for more than one row — vs
// in 256-row calls. Message counts drop by ~the batch size; on an
// enforced-latency link the wall clock follows.
void BM_Path_BlockFetchMicro(benchmark::State& state) {
  constexpr int kMicroRows = 5000;
  const bool block = state.range(0) != 0;
  const int fetch_rows = block ? 256 : 1;
  Schema schema;
  schema.AddColumn(ColumnDef{"a", DataType::kInt64, false});
  std::vector<Row> rows;
  for (int i = 0; i < kMicroRows; ++i) rows.push_back({Value::Int64(i)});
  net::Link link("micro", /*latency_us=*/30, /*us_per_kb=*/1.0,
                 /*enforce_delays=*/true);
  auto inner = std::make_unique<VectorRowset>(schema, rows);
  VectorRowset* source = inner.get();
  net::LinkedRowset rowset(std::move(inner), &link);
  double wall_ms = 0;
  for (auto _ : state) {
    if (!source->Restart().ok()) std::abort();
    link.ResetStats();
    auto start = std::chrono::steady_clock::now();
    int64_t n = 0;
    RowBatch batch;
    while (true) {
      auto has = rowset.NextBatch(&batch, fetch_rows);
      if (!has.ok()) std::abort();
      if (!*has) break;
      n += static_cast<int64_t>(batch.size());
    }
    if (n != kMicroRows) std::abort();
    wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    benchmark::DoNotOptimize(n);
  }
  state.counters["link_messages"] =
      static_cast<double>(link.stats().messages);
  state.SetLabel(block ? "block-fetch-256" : "row-at-a-time");
  bench::AppendBenchRecord("remote_access_paths",
                           block ? "micro_block_fetch" : "micro_row_at_a_time",
                           wall_ms, link.stats());
}
BENCHMARK(BM_Path_BlockFetchMicro)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Tentpole experiment: a large remote scan (simple provider -> RemoteScan of
// all 20k rows) with the async block-fetch pipeline off vs on. Off pays the
// link inline per pacing batch; on overlaps the link with local processing
// and ships fewer, bigger messages.
void BM_Path_LargeScanPipeline(benchmark::State& state) {
  auto* pair = bench::CachedFixture<HostWithRemote>("pipeline", BuildPaths);
  const bool prefetch = state.range(0) != 0;
  pair->host->options()->execution.enable_remote_prefetch = prefetch;
  int64_t msgs = 0, batches = 0, stalls = 0, rows_shipped = 0;
  double wall_ms = 0;
  for (auto _ : state) {
    pair->link->ResetStats();
    auto start = std::chrono::steady_clock::now();
    QueryResult r = MustRun(pair->host.get(),
                            "SELECT COUNT(*), SUM(k) FROM rsrv.d.s.t");
    wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    msgs = pair->link->stats().messages;
    batches = r.exec_stats.remote_batches;
    stalls = r.exec_stats.prefetch_stalls;
    rows_shipped = r.exec_stats.rows_from_remote;
    benchmark::DoNotOptimize(r);
  }
  state.counters["link_messages"] = static_cast<double>(msgs);
  state.counters["remote_batches"] = static_cast<double>(batches);
  state.counters["prefetch_stalls"] = static_cast<double>(stalls);
  state.counters["rows_shipped"] = static_cast<double>(rows_shipped);
  state.SetLabel(prefetch ? "async-prefetch" : "inline");
  bench::AppendBenchRecord("remote_access_paths",
                           prefetch ? "large_scan_prefetch"
                                    : "large_scan_inline",
                           wall_ms, pair->link->stats());
  pair->host->options()->execution = ExecOptions{};
}
BENCHMARK(BM_Path_LargeScanPipeline)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Point lookups, where "remote fetch" style access shines: one indexed row
// vs shipping anything else.
void BM_Path_PointLookup(benchmark::State& state) {
  std::string kind = state.range(0) == 0   ? "query"
                     : state.range(0) == 1 ? "index"
                                           : "simple";
  auto* pair = bench::CachedFixture<HostWithRemote>(kind, BuildPaths);
  int64_t k = 0;
  for (auto _ : state) {
    QueryResult r = MustRun(
        pair->host.get(),
        "SELECT pay FROM rsrv.d.s.t WHERE k = " + std::to_string(k % kRows));
    k += 7919;
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(kind);
}
BENCHMARK(BM_Path_PointLookup)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMicrosecond);

}  // namespace dhqp

BENCHMARK_MAIN();
