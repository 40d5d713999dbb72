#ifndef DHQP_BENCH_BENCH_UTIL_H_
#define DHQP_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "src/connectors/engine_provider.h"
#include "src/connectors/linked_provider.h"
#include "src/core/engine.h"

namespace dhqp {
namespace bench {

/// A host engine plus one remote engine attached as linked server `name`.
struct HostWithRemote {
  std::unique_ptr<Engine> host;
  std::unique_ptr<Engine> remote;
  std::unique_ptr<net::Link> link;
};

/// Builds the pair; `latency_us` > 0 adds real per-message delay so wall
/// time reflects network shape.
inline std::unique_ptr<HostWithRemote> MakeHostWithRemote(
    const std::string& name = "rsrv", double latency_us = 0,
    ProviderCapabilities caps = SqlServerCapabilities()) {
  auto pair = std::make_unique<HostWithRemote>();
  pair->host = std::make_unique<Engine>();
  pair->remote = std::make_unique<Engine>();
  pair->link = std::make_unique<net::Link>(name, latency_us, /*us_per_kb=*/1.0,
                                           latency_us > 0);
  auto provider = std::make_shared<LinkedDataSource>(
      std::make_shared<EngineDataSource>(pair->remote.get(), std::move(caps)),
      pair->link.get());
  Status st = pair->host->AddLinkedServer(name, provider);
  if (!st.ok()) std::abort();
  return pair;
}

/// Runs a query, aborting the bench on failure (benches must not silently
/// measure error paths).
inline QueryResult MustRun(Engine* engine, const std::string& sql,
                           const std::map<std::string, Value>& params = {}) {
  auto result = engine->Execute(sql, params);
  if (!result.ok()) {
    std::fprintf(stderr, "bench query failed: %s\n  %s\n",
                 result.status().ToString().c_str(), sql.c_str());
    std::abort();
  }
  return std::move(result).value();
}

/// Shared JSON-lines record writer: every bench result file is a sequence of
///   {"bench":"...","case":"...","wall_ms":1.23,<extra_json>}
/// records appended to `file` in the working directory, so results survive
/// the run and can be diffed across revisions. `extra_json` is a
/// pre-rendered fragment (e.g. "\"key\":{...}"); empty means no extra field.
inline void AppendJsonRecord(const std::string& file, const std::string& bench,
                             const std::string& case_name, double wall_ms,
                             const std::string& extra_json = "") {
  std::FILE* f = std::fopen(file.c_str(), "a");
  if (f == nullptr) return;
  std::fprintf(f, "{\"bench\":\"%s\",\"case\":\"%s\",\"wall_ms\":%.3f",
               bench.c_str(), case_name.c_str(), wall_ms);
  if (!extra_json.empty()) std::fprintf(f, ",%s", extra_json.c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
}

/// Link-traffic record (historical shape, kept for cross-revision diffs):
/// appends to BENCH_remote.json with a "link_stats" extra field.
inline void AppendBenchRecord(const std::string& bench,
                              const std::string& case_name, double wall_ms,
                              const net::LinkStats& stats) {
  char extra[160];
  std::snprintf(extra, sizeof(extra),
                "\"link_stats\":{\"messages\":%lld,\"rows\":%lld,"
                "\"bytes\":%lld}",
                static_cast<long long>(stats.messages),
                static_cast<long long>(stats.rows),
                static_cast<long long>(stats.bytes));
  AppendJsonRecord("BENCH_remote.json", bench, case_name, wall_ms, extra);
}

/// Fixture cache: benchmarks with Args() re-enter the same function; heavy
/// setup is built once per key and reused across iterations.
template <typename T>
T* CachedFixture(const std::string& key,
                 std::unique_ptr<T> (*builder)(const std::string&)) {
  static auto* cache = new std::map<std::string, std::unique_ptr<T>>();
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, builder(key)).first;
  }
  return it->second.get();
}

}  // namespace bench
}  // namespace dhqp

#endif  // DHQP_BENCH_BENCH_UTIL_H_
