#include "lib/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "lib/stats.h"

namespace perfbench {

namespace {

using dhqp::waits::WaitType;

const char* const kOperatorKinds[] = {
    "scan",   "filter", "project", "hash_join", "hash_aggregate",
    "stream_aggregate", "sort", "top", "spool", "exchange",
    "concat", "remote_query", "remote_scan"};

struct WaitMetric {
  const char* name;
  WaitType type;
};
const WaitMetric kWaitMetrics[] = {
    {"exchange_pop", WaitType::kExchangeQueuePop},
    {"exchange_push", WaitType::kExchangeQueuePush},
    {"prefetch", WaitType::kPrefetchQueue},
    {"link_send", WaitType::kLinkSend},
    {"concat", WaitType::kConcatQueue},
    {"spill_io", WaitType::kSpillIo},
    {"resource_semaphore", WaitType::kResourceSemaphore}};

const char* const kLayers[] = {"sql",  "optimizer", "core",
                               "executor", "connectors", "net",
                               "txn",  "remote",    "bench"};

// SafeRatio over integer counters.
double Ratio(int64_t num, int64_t den) {
  return SafeRatio(static_cast<double>(num), static_cast<double>(den));
}

constexpr double kMiB = 1024.0 * 1024.0;

struct Durations {
  int64_t total_ns = 0;
  int64_t count = 0;
  double MeanUs() const { return Ratio(total_ns, count) / 1e3; }
};

}  // namespace

void Aggregate::Add(const OpRecord& rec) {
  ++attempted;
  if (!rec.ok) {
    ++failed;
  } else if (!rec.correct) {
    ++wrong;
  }
  const double ms = static_cast<double>(rec.wall_ns) / 1e6;
  wall_ms.push_back(ms);
  wall_ms_by_shape[rec.shape].push_back(ms);
  sum.wall_ns += rec.wall_ns;
  sum.cpu_ns += rec.cpu_ns;
  sum.selects += rec.selects;
  sum.cache_hits += rec.cache_hits;
  sum.group_exprs += rec.group_exprs;
  sum.result_rows += rec.result_rows;
  sum.remote_rows += rec.remote_rows;
  sum.input_rows += rec.input_rows;
  sum.workers += rec.workers;
  sum.spills += rec.spills;
  sum.spill_bytes += rec.spill_bytes;
  sum.prefetch_stalls += rec.prefetch_stalls;
  sum.grant_bytes += rec.grant_bytes;
  sum.peak_mem_sum += rec.peak_mem_sum;
  sum.max_peak_mem = std::max(sum.max_peak_mem, rec.max_peak_mem);
  for (int i = 0; i < dhqp::waits::kNumWaitTypes; ++i) {
    sum.wait_ns[i] += rec.wait_ns[i];
  }
  for (const auto& [kind, totals] : rec.operators) {
    sum.operators[kind].self_ns += totals.self_ns;
    sum.operators[kind].rows += totals.rows;
  }
  sum.link_msgs += rec.link_msgs;
  sum.link_rows += rec.link_rows;
  sum.link_bytes += rec.link_bytes;
  sum.members_touched += rec.members_touched;
  min_members_touched =
      min_members_touched < 0
          ? rec.members_touched
          : std::min(min_members_touched, rec.members_touched);
  max_members_touched = std::max(max_members_touched, rec.members_touched);
}

double Aggregate::ShapeMedianSumMs() const {
  double total = 0;
  for (const auto& [shape, walls] : wall_ms_by_shape) {
    (void)shape;
    total += Percentile(walls, 50);
  }
  return total;
}

std::vector<Metric> EndToEndMetrics(const Aggregate& a, double setup_s,
                                    int64_t setup_repeats, double peak_rss_mb,
                                    std::vector<Metric>* extras) {
  const int64_t n = a.attempted;
  std::vector<Metric> out = {
      {"latency_p50_ms", Percentile(a.wall_ms, 50), "ms", n},
      {"latency_p90_ms", Percentile(a.wall_ms, 90), "ms", n},
      {"throughput_ops", Ratio(n, a.sum.wall_ns) * 1e9, "1/s", n},
      {"cpu_ms_per_op", Ratio(a.sum.cpu_ns, n) / 1e6, "ms", n},
      {"peak_rss_mb", peak_rss_mb, "MB", 1},
      {"setup_s", setup_s, "s", setup_repeats},
  };
  extras->clear();
  // The highest percentile with >= 10 samples beyond it, where that is
  // above p90 (p99 on a long run of short ops, p99.9 on a longer one).
  const double tail = HighestSupportedPercentile(n);
  if (tail > 90) {
    char name[32];
    std::snprintf(name, sizeof(name), "latency_p%g_ms", tail);
    extras->push_back({name, Percentile(a.wall_ms, tail), "ms", n});
  }
  extras->push_back({"latency_p90_samples_beyond",
                     static_cast<double>(SamplesBeyond(n, 90)), "count", n});
  extras->push_back({"error_rate", Ratio(a.failed + a.wrong, n), "ratio", n});
  extras->push_back(
      {"link_kb_per_op", Ratio(a.sum.link_bytes, n) / 1024.0, "KB", n});
  return out;
}

std::vector<Metric> PerLayerMetrics(const Aggregate& t,
                                    const std::vector<BenchSpan>& spans,
                                    const std::string& coordinator,
                                    double overhead_pct) {
  const int64_t n = t.attempted;
  const OpRecord& s = t.sum;

  // Span durations by name: the coordinator's engine spans and the
  // benchmark's own (member-engine spans are the `remote` layer).
  std::map<std::string, Durations> dur;
  std::vector<const BenchSpan*> timeline;
  for (const BenchSpan& span : spans) {
    if (span.op < 0) continue;
    if (!span.engine.empty() && span.engine != coordinator) continue;
    Durations& d = dur[span.name];
    d.total_ns += span.dur_ns;
    ++d.count;
    timeline.push_back(&span);
  }
  // Statement overhead on cache hits: Engine::Execute minus parse and plan
  // execution, for core.execute spans that contain no bind/optimize.
  std::sort(timeline.begin(), timeline.end(),
            [](const BenchSpan* a, const BenchSpan* b) {
              if (a->start_ns != b->start_ns) {
                return a->start_ns < b->start_ns;
              }
              return a->dur_ns > b->dur_ns;
            });
  Durations overhead;
  for (size_t i = 0; i < timeline.size(); ++i) {
    const BenchSpan* outer = timeline[i];
    if (outer->name != "core.execute") continue;
    const int64_t end = outer->start_ns + outer->dur_ns;
    int64_t inner_ns = 0;
    bool compiled = false;
    for (size_t j = i + 1;
         j < timeline.size() && timeline[j]->start_ns < end; ++j) {
      const BenchSpan* in = timeline[j];
      if (in->tid != outer->tid || in->engine != coordinator) continue;
      if (in->name == "engine.bind" || in->name == "engine.optimize") {
        compiled = true;
      }
      if (in->name == "engine.parse" || in->name == "engine.execute") {
        inner_ns += in->dur_ns;
      }
    }
    if (compiled) continue;
    overhead.total_ns += std::max<int64_t>(0, outer->dur_ns - inner_ns);
    ++overhead.count;
  }

  const Durations& parse = dur["engine.parse"];
  const Durations& bind = dur["engine.bind"];
  const Durations& optimize = dur["engine.optimize"];
  const Durations& execute = dur["engine.execute"];
  const Durations& open = dur["connectors.open"];
  const Durations& fetch = dur["connectors.fetch"];
  const Durations& insert = dur["txn.insert"];
  const Durations& commit = dur["txn.commit"];
  const int64_t compiled = s.selects - s.cache_hits;

  std::vector<Metric> out = {
      {"sql.parse_us", parse.MeanUs(), "us", parse.count},
      {"sql.bind_us", bind.MeanUs(), "us", bind.count},
      {"optimizer.optimize_us", optimize.MeanUs(), "us", optimize.count},
      {"optimizer.group_exprs", Ratio(s.group_exprs, compiled), "count",
       compiled},
      {"optimizer.plan_cache_hit_ratio", Ratio(s.cache_hits, s.selects),
       "ratio", s.selects},
      {"optimizer.remote_rows_per_result_row",
       Ratio(s.remote_rows, s.result_rows), "ratio", s.selects},
      {"optimizer.members_touched_per_op", Ratio(s.members_touched, n),
       "count", n},
      {"core.statement_overhead_us", overhead.MeanUs(), "us", overhead.count},
      {"governor.grant_kb", Ratio(s.grant_bytes, s.selects) / 1024.0, "KB",
       s.selects},
      {"governor.grant_used_ratio", Ratio(s.peak_mem_sum, s.grant_bytes),
       "ratio", s.selects},
      {"executor.execute_ms", Ratio(execute.total_ns, execute.count) / 1e6,
       "ms", execute.count},
      {"executor.ns_per_input_row", Ratio(execute.total_ns, s.input_rows),
       "ns", execute.count},
  };
  for (const char* kind : kOperatorKinds) {
    auto it = s.operators.find(kind);
    const OperatorTotals totals =
        it == s.operators.end() ? OperatorTotals{} : it->second;
    out.push_back({std::string("executor.self_ns_per_row.") + kind,
                   Ratio(totals.self_ns, totals.rows), "ns", totals.rows});
  }
  for (const char* kind : kOperatorKinds) {
    auto it = s.operators.find(kind);
    const int64_t self_ns = it == s.operators.end() ? 0 : it->second.self_ns;
    out.push_back({std::string("executor.self_ms_per_op.") + kind,
                   Ratio(self_ns, n) / 1e6, "ms", n});
  }
  out.push_back(
      {"executor.workers_per_op", Ratio(s.workers, n), "count", n});
  out.push_back(
      {"executor.cpu_per_wall", Ratio(s.cpu_ns, s.wall_ns), "ratio", n});
  out.push_back({"executor.peak_mem_mb",
                 static_cast<double>(s.max_peak_mem) / kMiB, "MB", s.selects});
  out.push_back(
      {"executor.spill_mb_per_op", Ratio(s.spill_bytes, n) / kMiB, "MB", n});
  out.push_back({"executor.spills_per_op", Ratio(s.spills, n), "count", n});
  for (const WaitMetric& w : kWaitMetrics) {
    out.push_back({std::string("wait.") + w.name + "_ms_per_op",
                   Ratio(s.wait_ns[static_cast<int>(w.type)], n) / 1e6, "ms",
                   n});
  }
  out.push_back({"connectors.open_us", open.MeanUs(), "us", open.count});
  out.push_back(
      {"connectors.fetch_us_per_batch", fetch.MeanUs(), "us", fetch.count});
  out.push_back({"link.msgs_per_op", Ratio(s.link_msgs, n), "count", n});
  out.push_back({"link.rows_per_op", Ratio(s.link_rows, n), "count", n});
  out.push_back({"link.kb_per_op", Ratio(s.link_bytes, n) / 1024.0, "KB", n});
  out.push_back(
      {"prefetch.stalls_per_op", Ratio(s.prefetch_stalls, n), "count", n});
  out.push_back({"txn.insert_us", insert.MeanUs(), "us", insert.count});
  out.push_back({"txn.commit_us", commit.MeanUs(), "us", commit.count});
  // Negative when the op's other threads burn more CPU than its wall time.
  out.push_back({"core.wall_minus_cpu_us", Ratio(s.wall_ns - s.cpu_ns, n) / 1e3,
                 "us", n});
  const std::map<std::string, int64_t> self = SelfNsByLayer(spans, coordinator);
  for (const char* layer : kLayers) {
    auto it = self.find(layer);
    const int64_t self_ns = it == self.end() ? 0 : it->second;
    out.push_back({std::string("layer.") + layer + ".self_ms_per_op",
                   Ratio(self_ns, n) / 1e6, "ms", n});
  }
  out.push_back({"bench.trace_overhead_pct", overhead_pct, "%", n});
  return out;
}

std::string ValidityProblem(const std::string& workload, const Aggregate& a) {
  const OpRecord& s = a.sum;
  if (a.attempted == 0) return "no op ran";
  if (workload == "tpch_local" && (s.link_bytes != 0 || s.remote_rows != 0)) {
    return "tpch_local shipped " + std::to_string(s.link_bytes) +
           " link bytes; a local workload must ship none";
  }
  if (workload == "tpch_governed" && (s.spills == 0 || s.workers == 0)) {
    return "tpch_governed ran " + std::to_string(s.spills) + " spills and " +
           std::to_string(s.workers) +
           " exchange workers; it must spill and run parallel";
  }
  if (workload == "tpcc_oltp" &&
      (a.min_members_touched != 1 || a.max_members_touched != 1)) {
    return "tpcc_oltp ops touched " + std::to_string(a.min_members_touched) +
           ".." + std::to_string(a.max_members_touched) +
           " members; every op must touch exactly one";
  }
  if (workload == "federated_adhoc" && Ratio(s.cache_hits, s.selects) > 0.1) {
    return "federated_adhoc hit the plan cache on " +
           std::to_string(s.cache_hits) + " of " + std::to_string(s.selects) +
           " statements; it must mostly compile";
  }
  return "";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0;
}

std::string MetricJson(const Metric& m, bool with_samples) {
  const double v = std::isfinite(m.value) ? m.value : 0.0;
  char buf[256];
  if (with_samples) {
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%lld}",
                  m.name.c_str(), v, m.unit.c_str(),
                  static_cast<long long>(m.samples));
  } else {
    std::snprintf(buf, sizeof(buf), "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  m.name.c_str(), v, m.unit.c_str());
  }
  return buf;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\":") +
                    (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += MetricJson(metrics[i], /*with_samples=*/false);
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
