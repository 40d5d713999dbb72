// Experiment E15 companion — what does intra-query parallelism buy on the
// hot local pipeline, and does the serial path stay fast when dop=1?
//   1. dop1  — execution.dop=1: the classic serial executor (no exchange
//      operators anywhere in the plan). This case's wall time is the
//      cross-revision regression tracker: the acceptance bar is that it
//      stays within 2% of the pre-exchange serial baseline, which the
//      BENCH_exchange.json history makes diffable.
//   2. dop4  — execution.dop=4 on the same 1M-row local
//      scan-filter-join-aggregate query. Acceptance gate: >=2x faster than
//      dop1 (paired minima, interleaved); the binary EXITS NON-ZERO below
//      that — but only on machines with >=4 hardware threads, because on a
//      smaller box the workers time-slice one core and the wall-clock gate
//      would measure the scheduler, not the exchange architecture. The
//      structural gate (the dop=4 plan must actually contain exchanges and
//      run parallel workers) applies on every machine.
//   3. sweep_dop* — dop sweep (1, 2, 4, 8) for the E15 scaling curve.
// Each case appends a metrics-snapshot-backed record to BENCH_exchange.json
// via the shared bench_util writer.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "src/common/metrics.h"

namespace dhqp {

namespace {

constexpr int kBigRows = 1000000;
constexpr int kDimRows = 10000;
constexpr double kMinSpeedup = 2.0;

// big: 1M rows, v cycles 0..9972 so `v < 4000` qualifies ~40% of rows.
// dim: 10K rows keyed on v, w = v % 23 gives 23 output groups.
struct ExchangeFixture {
  std::unique_ptr<Engine> host;
};

std::unique_ptr<ExchangeFixture> BuildFixture(const std::string&) {
  auto fx = std::make_unique<ExchangeFixture>();
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
  return fx;
}

// The gated workload: scan 1M rows, qualify ~40%, hash-join the 10K-row
// dimension, hash-aggregate into 23 groups.
constexpr const char* kQuery =
    "SELECT dim.w, COUNT(*), SUM(big.v) FROM big JOIN dim "
    "ON big.v = dim.v WHERE big.v < 4000 GROUP BY dim.w";

double OneRunMs(Engine* host, int dop, QueryResult* out = nullptr) {
  host->options()->execution.dop = dop;
  auto start = std::chrono::steady_clock::now();
  QueryResult r = bench::MustRun(host, kQuery);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  benchmark::DoNotOptimize(r);
  if (out != nullptr) *out = std::move(r);
  return ms;
}

// Min-of-N wall time with the two dops interleaved run-by-run, so
// machine-load drift hits both sides equally (the paired-minima estimator
// the vectorized and DMV gates use).
void MeasureDopPairMs(Engine* host, int dop_a, int dop_b, double* a_ms,
                      double* b_ms, int reps = 8) {
  *a_ms = 1e300;
  *b_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    *a_ms = std::min(*a_ms, OneRunMs(host, dop_a));
    *b_ms = std::min(*b_ms, OneRunMs(host, dop_b));
  }
  host->options()->execution.dop = 1;
}

void BM_Exchange_Dop1(benchmark::State& state) {
  auto* fx = bench::CachedFixture<ExchangeFixture>("exchange", BuildFixture);
  fx->host->options()->execution.dop = 1;
  for (auto _ : state) {
    QueryResult r = bench::MustRun(fx->host.get(), kQuery);
    benchmark::DoNotOptimize(r);
  }

  metrics::Registry::Global().ResetAll();
  double best = 1e300;
  for (int i = 0; i < 8; ++i) best = std::min(best, OneRunMs(fx->host.get(), 1));
  bench::AppendMetricsRecord("BENCH_exchange.json", "exchange", "dop1", best);
}

void BM_Exchange_Dop4(benchmark::State& state) {
  auto* fx = bench::CachedFixture<ExchangeFixture>("exchange", BuildFixture);
  fx->host->options()->execution.dop = 4;
  for (auto _ : state) {
    QueryResult r = bench::MustRun(fx->host.get(), kQuery);
    benchmark::DoNotOptimize(r);
  }

  // Structural gate, machine-independent: at dop=4 the optimizer must pick
  // a parallel plan and the exchange workers must actually run.
  QueryResult parallel;
  OneRunMs(fx->host.get(), 4, &parallel);
  if (parallel.exec_stats.parallel_workers() <= 0) {
    std::fprintf(stderr,
                 "FAIL: dop=4 run reported no parallel workers — the "
                 "exchange enforcer did not parallelize the gated query\n");
    std::exit(1);
  }

  metrics::Registry::Global().ResetAll();
  double serial_ms, parallel_ms;
  MeasureDopPairMs(fx->host.get(), /*dop_a=*/1, /*dop_b=*/4, &serial_ms,
                   &parallel_ms);
  double speedup = parallel_ms > 0 ? serial_ms / parallel_ms : 0.0;
  state.counters["speedup"] = speedup;
  bench::AppendMetricsRecord("BENCH_exchange.json", "exchange", "dop4",
                             parallel_ms);

  // The wall-clock gate needs real cores to be meaningful: four workers
  // time-slicing one hardware thread can only tie or lose. Record always,
  // gate only where the speedup is physically possible.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 4 && speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "FAIL: dop=4 speedup %.2fx below %.2fx on %u hardware "
                 "threads (dop1 %.3f ms vs dop4 %.3f ms)\n",
                 speedup, kMinSpeedup, hw, serial_ms, parallel_ms);
    std::exit(1);
  }
  if (hw < 4) {
    std::fprintf(stderr,
                 "note: %u hardware thread(s) — recording dop=4 speedup "
                 "%.2fx without gating (needs >=4 cores)\n",
                 hw, speedup);
  }
}

// Dop sweep for the E15 curve: where does scaling saturate, and what does
// the exchange overhead cost when workers outnumber cores?
void BM_Exchange_Sweep(benchmark::State& state) {
  auto* fx = bench::CachedFixture<ExchangeFixture>("exchange", BuildFixture);
  const int dop = static_cast<int>(state.range(0));
  fx->host->options()->execution.dop = dop;
  for (auto _ : state) {
    QueryResult r = bench::MustRun(fx->host.get(), kQuery);
    benchmark::DoNotOptimize(r);
  }

  metrics::Registry::Global().ResetAll();
  double best = 1e300;
  for (int i = 0; i < 4; ++i) {
    best = std::min(best, OneRunMs(fx->host.get(), dop));
  }
  char extra[64];
  std::snprintf(extra, sizeof(extra), "\"dop\":%d", dop);
  bench::AppendJsonRecord("BENCH_exchange.json", "exchange",
                          "sweep_dop" + std::to_string(dop), best, extra);
  fx->host->options()->execution.dop = 1;
}

BENCHMARK(BM_Exchange_Dop1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Exchange_Dop4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Exchange_Sweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dhqp

BENCHMARK_MAIN();
