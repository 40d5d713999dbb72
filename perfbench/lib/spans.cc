#include "lib/spans.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "lib/stats.h"
#include "src/common/activity.h"
#include "src/common/fastclock.h"
#include "src/common/trace.h"

namespace perfbench {

namespace {

constexpr char kOpPrefix[] = "op-";

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out->push_back(c);
  }
  out->push_back('"');
}

std::string LayerOf(const BenchSpan& span, const std::string& coordinator) {
  if (!span.engine.empty() && span.engine != coordinator) return "remote";
  const std::string& n = span.name;
  auto starts = [&n](const char* prefix) {
    return n.compare(0, std::strlen(prefix), prefix) == 0;
  };
  if (n == "engine.parse" || n == "engine.bind") return "sql";
  if (n == "engine.optimize" || starts("optimizer.")) return "optimizer";
  if (n == "engine.execute") return "executor";
  if (starts("core.")) return "core";
  if (starts("connectors.")) return "connectors";
  if (starts("link.")) return "net";
  if (starts("txn.")) return "txn";
  return "bench";
}

}  // namespace

std::string OpActivityId(int64_t op) { return kOpPrefix + std::to_string(op); }

int64_t OpFromActivity(const char* activity) {
  const size_t prefix = sizeof(kOpPrefix) - 1;
  if (std::strncmp(activity, kOpPrefix, prefix) != 0) return -1;
  const char* digits = activity + prefix;
  if (*digits == '\0') return -1;
  int64_t op = 0;
  for (const char* p = digits; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return -1;
    op = op * 10 + (*p - '0');
  }
  return op;
}

void SpanStore::Record(const char* name, int64_t start_ns, int64_t dur_ns) {
  BenchSpan span;
  span.name = name;
  span.op = OpFromActivity(dhqp::activity::Current().c_str());
  span.tid = dhqp::trace::Tracer::CurrentThreadId();
  span.start_ns = start_ns;
  span.dur_ns = dur_ns;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void SpanStore::DrainEngineTracer() {
  dhqp::trace::Tracer& tracer = dhqp::trace::Tracer::Global();
  std::vector<dhqp::trace::SpanRecord> records = tracer.Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  for (const dhqp::trace::SpanRecord& r : records) {
    BenchSpan span;
    span.name = r.name;
    span.engine = r.engine;
    span.op = OpFromActivity(r.activity);
    span.tid = r.tid;
    span.start_ns = r.start_ns;
    span.dur_ns = r.dur_ns;
    spans_.push_back(std::move(span));
  }
}

std::string SpanStore::ChromeJson(size_t max_spans) const {
  std::string out = "{\"traceEvents\":[";
  const size_t n = std::min(max_spans, spans_.size());
  int64_t t0 = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || spans_[i].start_ns < t0) t0 = spans_[i].start_ns;
  }
  for (size_t i = 0; i < n; ++i) {
    const BenchSpan& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":";
    AppendJsonString(&out, s.name);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"op\":%lld,\"engine\":",
                  s.tid, static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3,
                  static_cast<long long>(s.op));
    out += buf;
    AppendJsonString(&out, s.engine);
    out += "}}";
  }
  out += "]}\n";
  return out;
}

SpanStore& Spans() {
  static SpanStore* store = new SpanStore();
  return *store;
}

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  if (Spans().enabled()) start_ns_ = dhqp::fastclock::NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (start_ns_ < 0) return;
  Spans().Record(name_, start_ns_, dhqp::fastclock::NowNs() - start_ns_);
}

std::map<std::string, int64_t> SelfNsByLayer(
    const std::vector<BenchSpan>& spans, const std::string& coordinator) {
  std::map<int64_t, std::vector<const BenchSpan*>> by_op;
  for (const BenchSpan& s : spans) {
    if (s.op >= 0) by_op[s.op].push_back(&s);
  }
  std::map<std::string, int64_t> self_by_layer;
  for (auto& [op, group] : by_op) {
    (void)op;
    // Containers first: earlier start, then longer duration.
    std::sort(group.begin(), group.end(),
              [](const BenchSpan* a, const BenchSpan* b) {
                if (a->start_ns != b->start_ns) {
                  return a->start_ns < b->start_ns;
                }
                return a->dur_ns > b->dur_ns;
              });
    uint32_t op_tid = group.front()->tid;
    for (const BenchSpan* s : group) {
      if (s->name == "op") op_tid = s->tid;
    }
    auto end_of = [](const BenchSpan* s) { return s->start_ns + s->dur_ns; };
    const size_t m = group.size();
    std::vector<int> parent(m, -1);
    // Same-thread nesting: a per-thread stack over the start-sorted spans.
    std::map<uint32_t, std::vector<int>> stacks;
    for (size_t i = 0; i < m; ++i) {
      std::vector<int>& stack = stacks[group[i]->tid];
      while (!stack.empty() &&
             end_of(group[static_cast<size_t>(stack.back())]) <
                 end_of(group[i])) {
        stack.pop_back();
      }
      if (!stack.empty()) parent[i] = stack.back();
      stack.push_back(static_cast<int>(i));
    }
    // A worker-thread root hangs off the innermost op-thread span that was
    // open when it started.
    for (size_t i = 0; i < m; ++i) {
      if (parent[i] >= 0 || group[i]->tid == op_tid) continue;
      int best = -1;
      for (size_t j = 0; j < m; ++j) {
        const BenchSpan* c = group[j];
        if (c->tid != op_tid || c->start_ns > group[i]->start_ns ||
            end_of(c) < group[i]->start_ns) {
          continue;
        }
        if (best < 0 || c->dur_ns < group[static_cast<size_t>(best)]->dur_ns) {
          best = static_cast<int>(j);
        }
      }
      parent[i] = best;
    }
    std::vector<std::vector<Interval>> children(m);
    for (size_t i = 0; i < m; ++i) {
      if (parent[i] < 0) continue;
      children[static_cast<size_t>(parent[i])].push_back(
          Interval{group[i]->start_ns, end_of(group[i])});
    }
    for (size_t i = 0; i < m; ++i) {
      const Interval self{group[i]->start_ns, end_of(group[i])};
      self_by_layer[LayerOf(*group[i], coordinator)] +=
          SpanSelfNs(self, children[i]);
    }
  }
  return self_by_layer;
}

}  // namespace perfbench
