// dhqp benchmark harness: runs one named workload as a closed loop with one
// client thread for --seconds, checks every answer, and prints every
// metric by name with its unit and sample count. The last stdout line is
// the JSON result: end-to-end metrics with --trace 0; with --trace 1 the
// per-layer split of a traced phase (plus the span dump, written to
// .bench_out/trace-<workload>.json).
//
//   dhqp_perf --workload tpch_local --seed 1 --seconds 10 --trace 0
//
// Exit codes: 0 = measured and every answer correct; 1 = a wrong answer, a
// failed validity guard or a failed set-up; 2 = bad arguments; 3 = refused
// (sanitizer build).

#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lib/report.h"
#include "lib/spans.h"
#include "lib/stats.h"
#include "lib/workloads.h"
#include "src/common/activity.h"
#include "src/common/trace.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                    \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(PERFBENCH_SANITIZER_FLAGS)
#define PERFBENCH_SANITIZED 1
#endif

namespace perfbench {
namespace {

// Set-up runs at least kMinSetups times, and keeps repeating (up to
// kMaxSetups) until kSetupBudgetNs has passed, so a set-up of a few
// milliseconds still gets a steady median. Set-up is allocation-heavy and
// its time varies more from repeat to repeat than the ops' do.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 50;
constexpr int64_t kSetupBudgetNs = 2000000000;
// Engine span buffer per traced op (re-armed before each one).
constexpr size_t kTracerCapacity = size_t{1} << 15;
constexpr size_t kMaxDumpedSpans = 200000;
const char kOutDir[] = ".bench_out";

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args->workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args->trace = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && args->seconds > 0;
}

// Closed loop, one client: the next op starts when the previous one and
// its answer check are done. Only the op itself is timed.
class Runner {
 public:
  explicit Runner(Workload* workload) : workload_(workload) {}

  // Runs ops for `seconds` into `plain`. With `traced` set, whole rounds of
  // ops (one op of each shape) alternate between untraced, into `plain`,
  // and traced, into `traced`: both halves see the same machine conditions,
  // so their difference is the tracing overhead.
  void Measure(double seconds, Aggregate* plain, Aggregate* traced) {
    const int64_t deadline = SteadyNs() + static_cast<int64_t>(seconds * 1e9);
    std::vector<dhqp::net::Link*> links = workload_->links();
    std::vector<dhqp::net::LinkStats> before(links.size());
    const dhqp::EngineOptions& options = *workload_->coordinator()->options();
    const dhqp::ExecOptions exec = options.execution;
    const int64_t budget = options.max_server_memory_bytes;
    const std::vector<std::string> shapes = workload_->shapes();
    const int64_t round = static_cast<int64_t>(shapes.size());
    dhqp::trace::Tracer& tracer = dhqp::trace::Tracer::Global();
    for (int64_t i = 0; SteadyNs() < deadline; ++i) {
      const bool trace_op = traced != nullptr && (i / round) % 2 == 1;
      const Op op = workload_->Next();
      OpRecord rec;
      rec.shape = op.shape;
      for (size_t l = 0; l < links.size(); ++l) before[l] = links[l]->stats();
      if (trace_op) {
        tracer.Enable(kTracerCapacity);  // Re-arms the span buffer.
        Spans().set_enabled(true);
      }
      dhqp::Status status;
      {
        std::optional<dhqp::activity::Scope> scope;
        if (trace_op) scope.emplace(OpActivityId(next_op_id_));
        ScopedSpan span("op");
        const int64_t cpu0 = ProcessCpuNs();
        const int64_t t0 = SteadyNs();
        status = workload_->Run(op, &rec);
        rec.wall_ns = SteadyNs() - t0;
        rec.cpu_ns = ProcessCpuNs() - cpu0;
      }
      if (trace_op) {
        Spans().set_enabled(false);
        tracer.Disable();
        dropped_spans_ += tracer.dropped();
        Spans().DrainEngineTracer();
      }
      ++next_op_id_;
      for (size_t l = 0; l < links.size(); ++l) {
        const dhqp::net::LinkStats d = links[l]->stats() - before[l];
        rec.link_msgs += d.messages;
        rec.link_rows += d.rows;
        rec.link_bytes += d.bytes;
        rec.members_touched += d.messages > 0 ? 1 : 0;
      }
      rec.ok = status.ok();
      const char* shape = shapes[static_cast<size_t>(op.shape)].c_str();
      if (!rec.ok) {
        std::fprintf(stderr, "op %lld (%s) failed: %s\n",
                     static_cast<long long>(next_op_id_ - 1), shape,
                     status.ToString().c_str());
      } else {
        std::string why;
        rec.correct = workload_->Check(op, rec, &why);
        if (!rec.correct) {
          std::fprintf(stderr, "WRONG ANSWER op %lld (%s): %s\n  %s\n",
                       static_cast<long long>(next_op_id_ - 1), shape,
                       why.c_str(), op.sql.c_str());
        }
      }
      for (const dhqp::QueryResult& result : rec.results) {
        Summarize(result, exec, budget, &rec);
      }
      rec.results.clear();
      (trace_op ? traced : plain)->Add(rec);
    }
  }

  int64_t dropped_spans() const { return dropped_spans_; }

 private:
  Workload* workload_;
  int64_t next_op_id_ = 0;
  int64_t dropped_spans_ = 0;
};

void PrintMetric(const char* section, const Metric& m) {
  std::printf("%-10s %-40s %14.6g %-6s n=%lld\n", section, m.name.c_str(),
              m.value, m.unit.c_str(), static_cast<long long>(m.samples));
}

// Jiffies the whole machine spent (first) and lost to other virtual machines
// (second), from the first line of /proc/stat; zeros where it is absent.
std::pair<int64_t, int64_t> CpuJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  int64_t total = 0, steal = 0, v = 0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

std::string EnvJson(const Args& args, Workload* workload, double steal_pct) {
  std::string env =
      "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
      ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\",\"compiler\":\"" +
      std::string(PERFBENCH_COMPILER) + "\",\"workload\":\"" +
      args.workload + "\",\"seed\":" + std::to_string(args.seed) +
      ",\"seconds\":" + std::to_string(args.seconds) +
      ",\"trace\":" + (args.trace ? "1" : "0") +
      ",\"client_threads\":1,\"loop\":\"closed\"" +
      ",\"cpu_steal_pct\":" + std::to_string(steal_pct);
  for (const auto& [key, value] : workload->Params()) {
    env += ",\"" + key + "\":\"" + value + "\"";
  }
  return env + "}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dhqp_perf --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
#ifdef PERFBENCH_SANITIZED
  std::fprintf(stderr, "refusing to report numbers from a sanitizer build\n");
  return 3;
#endif
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  if (MakeWorkload(args.workload, kOutDir) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  // Set-up (data load, linking, warm-up) is repeated and its median
  // reported, so work moved into set-up shows; the last fixture is kept.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  const int64_t setup_start = SteadyNs();
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (static_cast<int>(setup_s.size()) < kMaxSetups &&
          SteadyNs() - setup_start < kSetupBudgetNs)) {
    workload.reset();
    const int64_t t0 = SteadyNs();
    workload = MakeWorkload(args.workload, kOutDir);
    dhqp::Status st =
        workload->Setup(args.seed, /*timed_providers=*/args.trace);
    if (st.ok()) st = workload->Warm();
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(SteadyNs() - t0) / 1e9);
  }
  const double setup_median = Percentile(setup_s, 50);
  std::printf("setup:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf(" s\n");
  const std::string coordinator = workload->coordinator()->name();

  Runner runner(workload.get());
  const std::pair<int64_t, int64_t> jiffies0 = CpuJiffies();
  Aggregate measured;  // The ops whose metrics are reported.
  int64_t attempted = 0, failed = 0, wrong = 0;  // Every op of the run.
  std::vector<Metric> metrics, extras;
  if (!args.trace) {
    runner.Measure(args.seconds, &measured, nullptr);
    metrics = EndToEndMetrics(measured, setup_median,
                              static_cast<int64_t>(setup_s.size()), PeakRssMb(),
                              &extras);
  } else {
    Aggregate untraced;
    runner.Measure(args.seconds, &untraced, &measured);
    const double overhead_pct =
        100.0 * (SafeRatio(measured.ShapeMedianSumMs(),
                           untraced.ShapeMedianSumMs()) -
                 1.0);
    metrics =
        PerLayerMetrics(measured, Spans().spans(), coordinator, overhead_pct);
    attempted += untraced.attempted;
    failed += untraced.failed;
    wrong += untraced.wrong;
    const std::string path =
        std::string(kOutDir) + "/trace-" + args.workload + ".json";
    std::ofstream(path) << Spans().ChromeJson(kMaxDumpedSpans);
    std::printf("spans: %zu recorded, %lld dropped, dump: %s\n",
                Spans().spans().size(),
                static_cast<long long>(runner.dropped_spans()), path.c_str());
  }

  attempted += measured.attempted;
  failed += measured.failed;
  wrong += measured.wrong;
  std::string why;
  const bool final_ok = workload->FinalCheck(&why);
  if (!final_ok) std::fprintf(stderr, "WRONG FINAL STATE: %s\n", why.c_str());
  const std::string invalid = ValidityProblem(args.workload, measured);
  if (!invalid.empty()) {
    std::fprintf(stderr, "INVALID RUN: %s\n", invalid.c_str());
  }

  // Time the hypervisor gave other machines while this run measured: the
  // first thing to check when two runs of the same code disagree.
  const std::pair<int64_t, int64_t> jiffies1 = CpuJiffies();
  const double steal_pct =
      100.0 * SafeRatio(static_cast<double>(jiffies1.second - jiffies0.second),
                        static_cast<double>(jiffies1.first - jiffies0.first));
  const std::string env = EnvJson(args, workload.get(), steal_pct);
  std::printf("env: %s\n", env.c_str());
  std::printf("ops: %lld attempted, %lld failed, %lld wrong\n",
              static_cast<long long>(attempted), static_cast<long long>(failed),
              static_cast<long long>(wrong));
  for (const auto& [shape, walls] : measured.wall_ms_by_shape) {
    std::printf("shape %-16s n=%-6zu p50=%.4f ms  p90=%.4f ms  min=%.4f ms\n",
                workload->shapes()[static_cast<size_t>(shape)].c_str(),
                walls.size(), Percentile(walls, 50), Percentile(walls, 90),
                Percentile(walls, 0));
  }
  const char* section = args.trace ? "per_layer" : "end_to_end";
  for (const Metric& m : metrics) PrintMetric(section, m);
  for (const Metric& m : extras) PrintMetric("extra", m);

  // The full record (environment, every metric with its sample count) is
  // kept beside the trace for anyone comparing runs.
  std::string record = "{\"env\":" + env + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size() + extras.size(); ++i) {
    if (i > 0) record += ",";
    const Metric& metric =
        i < metrics.size() ? metrics[i] : extras[i - metrics.size()];
    record += MetricJson(metric, /*with_samples=*/true);
  }
  record += "}}\n";
  std::ofstream(std::string(kOutDir) + "/result-" + args.workload + "-trace" +
                (args.trace ? "1" : "0") + ".json")
      << record;

  const bool correct = wrong == 0 && final_ok;
  std::printf("%s\n",
              ResultJson(correct, attempted, failed + wrong, metrics).c_str());
  std::fflush(stdout);
  return correct && failed == 0 && invalid.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
