// Experiment E18 companion — what does memory-grant admission cost when
// memory is plentiful, and what does spilling cost when it is not?
//   1. admission — the 1M-row dop=4 scan-filter-join-aggregate (the same
//      workload the exchange/waits/requests gates use) with the governor
//      disabled (max_server_memory_bytes=0) vs enabled with a budget far
//      above the workload's needs, so the only difference is the admission
//      machinery itself: estimate the grant, take the semaphore, release
//      it. Acceptance gate: the governed run is within 5% of the ungoverned
//      floor (paired minima, interleaved); the binary EXITS NON-ZERO above
//      that.
//   2. spill — the same join under a 256 KiB per-query grant, forcing the
//      hash-join build side (10K-row dim) and probe partitions through the
//      Grace spill path. Structural gate: the tight run must actually
//      report spills (a silent no-spill run would gate nothing). Wall gate:
//      the spilled run stays within 3x the in-memory run — partitioned
//      spill does extra I/O, but it must degrade, not collapse.
// Each case appends a metrics-snapshot-backed record to BENCH_governor.json
// via the shared bench_util writer.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/metrics.h"
#include "src/common/row.h"

namespace dhqp {

namespace {

constexpr int kBigRows = 1000000;
constexpr int kDimRows = 10000;
constexpr double kMaxAdmissionOverhead = 1.05;
constexpr double kMaxSpillSlowdown = 3.0;

// big: 1M rows, v cycles 0..9972 so `v < 4000` qualifies ~40% of rows.
// dim: 10K rows keyed on v, w = v % 23 gives 23 output groups. Same data
// shape as bench_exchange so the admission numbers are comparable to the
// exchange/waits/requests gate history.
struct GovernorFixture {
  std::unique_ptr<Engine> host;
};

std::unique_ptr<GovernorFixture> BuildFixture(const std::string&) {
  auto fx = std::make_unique<GovernorFixture>();
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
// dimension (big.v carries no index, so the join must build a hash table —
// an indexed key would merge-join and leave nothing for the governor to
// grant), hash-aggregate into 23 groups.
constexpr const char* kQuery =
    "SELECT dim.w, COUNT(*), SUM(big.v) FROM big JOIN dim "
    "ON big.v = dim.v WHERE big.v < 4000 GROUP BY dim.w";

// Governor regimes under measurement. `off` disables admission entirely;
// `huge` admits everything instantly (4 GiB budget, no per-query cap) so
// only the admission bookkeeping is on the clock; `tight` clamps every
// statement to a 256 KiB grant, forcing the join build to spill.
struct GovernorMode {
  int64_t budget;
  int64_t per_query;
};
constexpr GovernorMode kOff = {0, 0};
constexpr GovernorMode kHuge = {4LL << 30, 0};
constexpr GovernorMode kTight = {256LL << 20, 256LL << 10};

void ApplyMode(Engine* host, const GovernorMode& mode) {
  host->options()->max_server_memory_bytes = mode.budget;
  host->options()->max_grant_per_query_bytes = mode.per_query;
}

// Order-insensitive answer key: hash aggregation emits groups in whichever
// order the (possibly spilled) partitions produced them.
std::string SortedRows(const QueryResult& r) {
  if (r.rowset == nullptr) return "";
  std::vector<std::string> lines;
  for (const Row& row : r.rowset->rows()) lines.push_back(RowToString(row));
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

double OneRunMs(Engine* host, const GovernorMode& mode, int dop,
                QueryResult* out = nullptr) {
  ApplyMode(host, mode);
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

// Min-of-N wall time with the two governor modes interleaved run-by-run, so
// machine-load drift hits both sides equally (the paired-minima estimator
// the exchange/waits/requests gates use).
void MeasureModePairMs(Engine* host, const GovernorMode& mode_a,
                       const GovernorMode& mode_b, int dop, double* a_ms,
                       double* b_ms, int reps = 8) {
  *a_ms = 1e300;
  *b_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    *a_ms = std::min(*a_ms, OneRunMs(host, mode_a, dop));
    *b_ms = std::min(*b_ms, OneRunMs(host, mode_b, dop));
  }
  ApplyMode(host, kOff);
  host->options()->execution.dop = 1;
}

void BM_Governor_Admission(benchmark::State& state) {
  auto* fx = bench::CachedFixture<GovernorFixture>("governor", BuildFixture);
  ApplyMode(fx->host.get(), kHuge);
  fx->host->options()->execution.dop = 4;
  for (auto _ : state) {
    QueryResult r = bench::MustRun(fx->host.get(), kQuery);
    benchmark::DoNotOptimize(r);
  }

  // A 4 GiB budget must admit this workload without a single spill —
  // otherwise the "overhead only" premise of the gate is wrong.
  QueryResult governed;
  OneRunMs(fx->host.get(), kHuge, 4, &governed);
  if (governed.exec_stats.spills > 0) {
    std::fprintf(stderr,
                 "FAIL: governed run under a 4 GiB budget spilled %lld "
                 "times — the admission gate would be measuring spill I/O, "
                 "not admission overhead\n",
                 static_cast<long long>(governed.exec_stats.spills));
    std::exit(1);
  }

  metrics::Registry::Global().ResetAll();
  double off_ms, on_ms;
  MeasureModePairMs(fx->host.get(), kOff, kHuge, /*dop=*/4, &off_ms, &on_ms);
  double overhead = off_ms > 0 ? on_ms / off_ms : 1e300;
  state.counters["overhead"] = overhead;
  bench::AppendMetricsRecord("BENCH_governor.json", "governor", "admission",
                             on_ms);
  bench::AppendJsonRecord("BENCH_governor.json", "governor",
                          "admission_floor_governor_off", off_ms);

  if (overhead > kMaxAdmissionOverhead) {
    std::fprintf(stderr,
                 "FAIL: admission overhead %.3fx exceeds %.2fx "
                 "(governor off %.3f ms vs on %.3f ms)\n",
                 overhead, kMaxAdmissionOverhead, off_ms, on_ms);
    std::exit(1);
  }
}

void BM_Governor_Spill(benchmark::State& state) {
  auto* fx = bench::CachedFixture<GovernorFixture>("governor", BuildFixture);
  ApplyMode(fx->host.get(), kTight);
  fx->host->options()->execution.dop = 1;
  for (auto _ : state) {
    QueryResult r = bench::MustRun(fx->host.get(), kQuery);
    benchmark::DoNotOptimize(r);
  }

  // Structural gate, machine-independent: the tight run must actually take
  // the spill path, and both regimes must agree on the answer.
  QueryResult spilled, in_memory;
  OneRunMs(fx->host.get(), kTight, 1, &spilled);
  OneRunMs(fx->host.get(), kOff, 1, &in_memory);
  if (spilled.exec_stats.spills <= 0 || spilled.exec_stats.spill_bytes <= 0) {
    std::fprintf(stderr,
                 "FAIL: the 256 KiB-grant run reported no spills — the "
                 "spill gate is not exercising the spill path\n");
    std::exit(1);
  }
  if (SortedRows(spilled) != SortedRows(in_memory)) {
    std::fprintf(stderr,
                 "FAIL: spilled and in-memory runs disagree on the answer "
                 "(%zu vs %zu rows)\n",
                 spilled.rowset != nullptr ? spilled.rowset->rows().size() : 0,
                 in_memory.rowset != nullptr ? in_memory.rowset->rows().size()
                                             : 0);
    std::exit(1);
  }

  metrics::Registry::Global().ResetAll();
  double in_memory_ms, spilled_ms;
  MeasureModePairMs(fx->host.get(), kOff, kTight, /*dop=*/1, &in_memory_ms,
                    &spilled_ms);
  double slowdown = in_memory_ms > 0 ? spilled_ms / in_memory_ms : 1e300;
  state.counters["slowdown"] = slowdown;
  char extra[96];
  std::snprintf(extra, sizeof(extra), "\"spills\":%lld,\"spill_bytes\":%lld",
                static_cast<long long>(spilled.exec_stats.spills),
                static_cast<long long>(spilled.exec_stats.spill_bytes));
  bench::AppendJsonRecord("BENCH_governor.json", "governor", "spill",
                          spilled_ms, extra);
  bench::AppendJsonRecord("BENCH_governor.json", "governor",
                          "spill_floor_in_memory", in_memory_ms);

  if (slowdown > kMaxSpillSlowdown) {
    std::fprintf(stderr,
                 "FAIL: spilled run %.3fx slower than in-memory, above the "
                 "%.1fx bar (in-memory %.3f ms vs spilled %.3f ms)\n",
                 slowdown, kMaxSpillSlowdown, in_memory_ms, spilled_ms);
    std::exit(1);
  }
}

BENCHMARK(BM_Governor_Admission)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Governor_Spill)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dhqp

BENCHMARK_MAIN();
