#ifndef PERFBENCH_LIB_SPANS_H_
#define PERFBENCH_LIB_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One span of the traced run: the benchmark's own spans around calls into
/// each layer, plus the engine's existing spans (engine.parse, engine.bind,
/// engine.optimize, engine.execute, optimizer.phase, link.*) drained from
/// the engine tracer. Every span carries the id of the op it belongs to:
/// the harness runs each op under the activity id "op-<n>", which the engine
/// propagates to its prefetch, exchange and Concat threads and to member
/// engines, so spans from those threads tie back to their op.
struct BenchSpan {
  std::string name;
  std::string engine;  ///< Engine tag of engine spans; "" for bench spans.
  int64_t op = -1;
  uint32_t tid = 0;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

/// The activity id an op runs under, and its inverse (-1 when `activity` is
/// not an op id).
std::string OpActivityId(int64_t op);
int64_t OpFromActivity(const char* activity);

/// In-memory span store for the traced run. Recording is thread-safe;
/// reading happens after the run, when every worker thread has joined.
class SpanStore {
 public:
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a benchmark span for the calling thread's current op.
  void Record(const char* name, int64_t start_ns, int64_t dur_ns);

  /// Copies the engine tracer's spans into the store. Call between ops,
  /// with the tracer disabled; the caller re-arms it (Tracer::Enable)
  /// before the next traced op.
  void DrainEngineTracer();

  const std::vector<BenchSpan>& spans() const { return spans_; }

  /// Chrome trace_event JSON of at most `max_spans` spans, one "complete"
  /// event per span with its op id and engine tag in args.
  std::string ChromeJson(size_t max_spans) const;

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<BenchSpan> spans_;  // Guarded by mu_ while recording.
};

SpanStore& Spans();

/// RAII benchmark span; free when the store is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  int64_t start_ns_ = -1;
};

/// Self time per layer, summed over all ops in `spans`. Layers: sql,
/// optimizer, core, executor, connectors, net, txn, remote (work inside a
/// member engine: any engine span whose tag is not `coordinator`) and bench
/// (the op span itself). Each span's parent is the smallest span of the
/// same op that contains it, preferring its own thread; a span on another
/// thread (prefetch, exchange, Concat) with no enclosing span there hangs
/// off the smallest enclosing span of the op's thread. Self time = duration
/// minus the union of the children.
std::map<std::string, int64_t> SelfNsByLayer(
    const std::vector<BenchSpan>& spans, const std::string& coordinator);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_SPANS_H_
