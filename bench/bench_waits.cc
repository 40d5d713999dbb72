// Experiment E16 companion — what does wait-statistics accounting cost on
// the hottest path we have? Reuses the E15 exchange workload (1M-row local
// scan-filter-join-aggregate at dop=4), because that query crosses every
// instrumented queue: exchange partition queues on both sides plus the
// Concat/gather machinery — the worst case for per-block timing overhead.
//   1. waits_on  — waits::SetEnabled(true), the default production shape:
//      every blocked interval is timed and charged to the global registry,
//      the query tally, and the owning operator.
//   2. waits_off — waits::SetEnabled(false): hooks still fire but record
//      nothing. The floor.
// Acceptance gate: waits_on within 5% of waits_off (paired minima,
// interleaved run-by-run); the binary EXITS NON-ZERO above that, so the
// ctest wiring turns a regression into a test failure. The design intent
// this guards: timing starts only after a queue predicate has already
// observed "blocked", so the uncontended fast path adds no clock reads.
// Each case appends a metrics-snapshot-backed record to BENCH_waits.json
// via the shared bench_util writer.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "src/common/metrics.h"
#include "src/common/waits.h"

namespace dhqp {

namespace {

constexpr int kBigRows = 1000000;
constexpr int kDimRows = 10000;
constexpr double kMaxOverheadPct = 5.0;

// Same data shape as bench_exchange: big.v cycles 0..9972 (~40% qualify
// under v < 4000), dim keyed on v with 23 output groups.
struct WaitsFixture {
  std::unique_ptr<Engine> host;
};

std::unique_ptr<WaitsFixture> BuildFixture(const std::string&) {
  auto fx = std::make_unique<WaitsFixture>();
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

// Min-of-N wall time with waits-on and waits-off interleaved run-by-run, so
// machine-load drift hits both sides equally (the paired-minima estimator
// the DMV and vectorized gates use).
void MeasureWaitsPairMs(Engine* host, double* on_ms, double* off_ms,
                        int reps = 12) {
  *on_ms = 1e300;
  *off_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    waits::SetEnabled(true);
    *on_ms = std::min(*on_ms, OneRunMs(host));
    waits::SetEnabled(false);
    *off_ms = std::min(*off_ms, OneRunMs(host));
  }
  waits::SetEnabled(true);
}

void BM_Waits_Enabled(benchmark::State& state) {
  auto* fx = bench::CachedFixture<WaitsFixture>("waits", BuildFixture);
  waits::SetEnabled(true);
  for (auto _ : state) {
    QueryResult r = bench::MustRun(fx->host.get(), kQuery);
    benchmark::DoNotOptimize(r);
  }

  metrics::Registry::Global().ResetAll();
  waits::ResetGlobal();
  double best = 1e300;
  for (int i = 0; i < 8; ++i) best = std::min(best, OneRunMs(fx->host.get()));
  // The metrics snapshot embeds the waits.* histograms this run populated,
  // so BENCH_waits.json records what the accounting saw, not just its cost.
  bench::AppendMetricsRecord("BENCH_waits.json", "waits", "waits_on", best);
}

void BM_Waits_Disabled(benchmark::State& state) {
  auto* fx = bench::CachedFixture<WaitsFixture>("waits", BuildFixture);
  waits::SetEnabled(false);
  for (auto _ : state) {
    QueryResult r = bench::MustRun(fx->host.get(), kQuery);
    benchmark::DoNotOptimize(r);
  }
  waits::SetEnabled(true);

  metrics::Registry::Global().ResetAll();
  double best = 1e300;
  waits::SetEnabled(false);
  for (int i = 0; i < 8; ++i) best = std::min(best, OneRunMs(fx->host.get()));
  waits::SetEnabled(true);
  bench::AppendMetricsRecord("BENCH_waits.json", "waits", "waits_off", best);
}

// The acceptance gate: full wait accounting must stay within 5% of the
// disabled floor on the most queue-crossing workload in the suite.
void BM_Waits_OverheadGate(benchmark::State& state) {
  auto* fx = bench::CachedFixture<WaitsFixture>("waits", BuildFixture);
  for (auto _ : state) {
    QueryResult r = bench::MustRun(fx->host.get(), kQuery);
    benchmark::DoNotOptimize(r);
  }

  double on_ms, off_ms;
  MeasureWaitsPairMs(fx->host.get(), &on_ms, &off_ms);
  double overhead_pct = off_ms > 0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0;
  state.counters["overhead_pct"] = overhead_pct;
  char extra[96];
  std::snprintf(extra, sizeof(extra),
                "\"waits_on_ms\":%.3f,\"waits_off_ms\":%.3f", on_ms, off_ms);
  bench::AppendJsonRecord("BENCH_waits.json", "waits", "overhead_gate",
                          on_ms, extra);

  if (overhead_pct > kMaxOverheadPct) {
    std::fprintf(stderr,
                 "FAIL: wait-statistics overhead %.2f%% exceeds %.2f%% "
                 "(waits_on %.3f ms vs waits_off %.3f ms)\n",
                 overhead_pct, kMaxOverheadPct, on_ms, off_ms);
    std::exit(1);
  }
}

BENCHMARK(BM_Waits_Enabled)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Waits_Disabled)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Waits_OverheadGate)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dhqp

BENCHMARK_MAIN();
