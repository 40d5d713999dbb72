// Experiment E17 companion — what does live request monitoring cost per
// statement? Reuses the E15/E16 exchange workload (1M-row local
// scan-filter-join-aggregate at dop=4): the query is heavy enough that
// per-statement registry work (map insert/erase under a mutex, live
// counter flushes, memory charges) must disappear into the noise.
//   1. monitor_on  — RequestRegistry enabled, the default production
//      shape: every statement registers, publishes its profile, charges
//      query-wide memory, and unregisters.
//   2. monitor_off — RequestRegistry::SetEnabled(false): Execute falls
//      back to an inline wait tally and ExecContext::memory stays null.
//      The floor.
// Acceptance gate: monitor_on within 5% of monitor_off (paired minima,
// interleaved run-by-run); the binary EXITS NON-ZERO above that, so the
// ctest wiring turns a regression into a test failure. The design intent
// this guards: registration is two O(log n) map operations per statement
// and the live row counts ride the existing per-batch profiling path —
// nothing per-row is added. Each case appends a record to
// BENCH_requests.json via the shared bench_util writer.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "src/common/metrics.h"
#include "src/sysview/requests.h"

namespace dhqp {

namespace {

constexpr int kBigRows = 1000000;
constexpr int kDimRows = 10000;
constexpr double kMaxOverheadPct = 5.0;

struct RequestsFixture {
  std::unique_ptr<Engine> host;
};

std::unique_ptr<RequestsFixture> BuildFixture(const std::string&) {
  auto fx = std::make_unique<RequestsFixture>();
  fx->host = std::make_unique<Engine>();
  bench::MustRun(fx->host.get(),
                 "CREATE TABLE big (id INT PRIMARY KEY, v INT)");
  for (int base = 0; base < kBigRows; base += 5000) {
    std::string sql = "INSERT INTO big VALUES ";
    for (int i = base; i < base + 5000; ++i) {
      if (i != base) sql += ",";
      sql += "(" + std::to_string(i) + "," + std::to_string(i % 9973) + ")";
    }
    bench::MustRun(fx->host.get(), sql);
  }
  bench::MustRun(fx->host.get(),
                 "CREATE TABLE dim (v INT PRIMARY KEY, w INT)");
  for (int base = 0; base < kDimRows; base += 5000) {
    std::string sql = "INSERT INTO dim VALUES ";
    for (int i = base; i < base + 5000; ++i) {
      if (i != base) sql += ",";
      sql += "(" + std::to_string(i) + "," + std::to_string(i % 23) + ")";
    }
    bench::MustRun(fx->host.get(), sql);
  }
  fx->host->options()->execution.dop = 4;
  return fx;
}

constexpr const char* kQuery =
    "SELECT dim.w, COUNT(*), SUM(big.v) FROM big JOIN dim "
    "ON big.v = dim.v WHERE big.v < 4000 GROUP BY dim.w";

double OneRunMs(Engine* host) {
  auto start = std::chrono::steady_clock::now();
  QueryResult r = bench::MustRun(host, kQuery);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  benchmark::DoNotOptimize(r);
  return ms;
}

// Min-of-N wall time with monitoring on and off interleaved run-by-run, so
// machine-load drift hits both sides equally (the paired-minima estimator
// the waits and DMV gates use).
void MeasureMonitorPairMs(Engine* host, double* on_ms, double* off_ms,
                          int reps = 12) {
  *on_ms = 1e300;
  *off_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    sysview::RequestRegistry::SetEnabled(true);
    *on_ms = std::min(*on_ms, OneRunMs(host));
    sysview::RequestRegistry::SetEnabled(false);
    *off_ms = std::min(*off_ms, OneRunMs(host));
  }
  sysview::RequestRegistry::SetEnabled(true);
}

void BM_Requests_Enabled(benchmark::State& state) {
  auto* fx = bench::CachedFixture<RequestsFixture>("requests", BuildFixture);
  sysview::RequestRegistry::SetEnabled(true);
  for (auto _ : state) {
    QueryResult r = bench::MustRun(fx->host.get(), kQuery);
    benchmark::DoNotOptimize(r);
  }

  metrics::Registry::Global().ResetAll();
  double best = 1e300;
  for (int i = 0; i < 8; ++i) best = std::min(best, OneRunMs(fx->host.get()));
  bench::AppendMetricsRecord("BENCH_requests.json", "requests", "monitor_on",
                             best);
}

void BM_Requests_Disabled(benchmark::State& state) {
  auto* fx = bench::CachedFixture<RequestsFixture>("requests", BuildFixture);
  sysview::RequestRegistry::SetEnabled(false);
  for (auto _ : state) {
    QueryResult r = bench::MustRun(fx->host.get(), kQuery);
    benchmark::DoNotOptimize(r);
  }
  sysview::RequestRegistry::SetEnabled(true);

  metrics::Registry::Global().ResetAll();
  double best = 1e300;
  sysview::RequestRegistry::SetEnabled(false);
  for (int i = 0; i < 8; ++i) best = std::min(best, OneRunMs(fx->host.get()));
  sysview::RequestRegistry::SetEnabled(true);
  bench::AppendMetricsRecord("BENCH_requests.json", "requests", "monitor_off",
                             best);
}

// The acceptance gate: live request monitoring must stay within 5% of the
// disabled floor on the heaviest multi-queue workload in the suite.
void BM_Requests_OverheadGate(benchmark::State& state) {
  auto* fx = bench::CachedFixture<RequestsFixture>("requests", BuildFixture);
  for (auto _ : state) {
    QueryResult r = bench::MustRun(fx->host.get(), kQuery);
    benchmark::DoNotOptimize(r);
  }

  double on_ms, off_ms;
  MeasureMonitorPairMs(fx->host.get(), &on_ms, &off_ms);
  double overhead_pct = off_ms > 0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0;
  state.counters["overhead_pct"] = overhead_pct;
  char extra[96];
  std::snprintf(extra, sizeof(extra),
                "\"monitor_on_ms\":%.3f,\"monitor_off_ms\":%.3f", on_ms,
                off_ms);
  bench::AppendJsonRecord("BENCH_requests.json", "requests", "overhead_gate",
                          on_ms, extra);

  if (overhead_pct > kMaxOverheadPct) {
    std::fprintf(stderr,
                 "FAIL: request-monitoring overhead %.2f%% exceeds %.2f%% "
                 "(monitor_on %.3f ms vs monitor_off %.3f ms)\n",
                 overhead_pct, kMaxOverheadPct, on_ms, off_ms);
    std::exit(1);
  }
}

BENCHMARK(BM_Requests_Enabled)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Requests_Disabled)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Requests_OverheadGate)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dhqp

BENCHMARK_MAIN();
