#include "src/common/waits.h"

#include <mutex>
#include <string>

#include "src/common/metrics.h"

namespace dhqp {
namespace waits {

namespace {

constexpr const char* kNames[kNumWaitTypes] = {
    "EXCHANGE_QUEUE_PUSH", "EXCHANGE_QUEUE_POP", "PREFETCH_QUEUE",
    "CONCAT_QUEUE",        "LINK_SEND",          "RETRY_BACKOFF",
    "PLAN_CACHE_MUTEX",    "QUERY_STORE_MUTEX",  "RESOURCE_SEMAPHORE",
    "SPILL_IO",
};

thread_local WaitTally* t_query_tally = nullptr;

/// One registry histogram per type, registered once and cached — RecordWait
/// must stay lock-free on the hot path. Histogram units are nanoseconds.
metrics::Histogram** GlobalHistograms() {
  static metrics::Histogram* hists[kNumWaitTypes] = {};
  static std::once_flag once;
  std::call_once(once, [] {
    for (int i = 0; i < kNumWaitTypes; ++i) {
      hists[i] = metrics::Registry::Global().GetHistogram(
          std::string("waits.") + kNames[i] + ".ns");
    }
  });
  return hists;
}

}  // namespace

const char* Name(WaitType type) { return kNames[static_cast<int>(type)]; }

std::string WaitTotals::TopType() const {
  int best = -1;
  int64_t best_ns = 0;
  for (int i = 0; i < kNumWaitTypes; ++i) {
    // Break ticks-ties (all ~0 ns under unenforced links) by event count so
    // the top type is still meaningful in fast test runs.
    if (count[i] > 0 &&
        (best < 0 || ns[i] > best_ns ||
         (ns[i] == best_ns && count[i] > count[best]))) {
      best = i;
      best_ns = ns[i];
    }
  }
  return best < 0 ? "" : kNames[best];
}

WaitTotals Snapshot(const WaitTally& tally) {
  WaitTotals out;
  for (int i = 0; i < kNumWaitTypes; ++i) {
    const WaitType t = static_cast<WaitType>(i);
    out.count[i] = tally.CountFor(t);
    out.ns[i] = tally.NsFor(t);
  }
  return out;
}

void RecordWait(WaitType type, int64_t elapsed_ticks, WaitTally* op) {
  if (elapsed_ticks < 0) elapsed_ticks = 0;
  GlobalHistograms()[static_cast<int>(type)]->Observe(
      fastclock::ToNs(elapsed_ticks));
  if (t_query_tally != nullptr) t_query_tally->Add(type, elapsed_ticks);
  if (op != nullptr) op->Add(type, elapsed_ticks);
}

ScopedQueryTally::ScopedQueryTally(WaitTally* tally) : prev_(t_query_tally) {
  t_query_tally = tally;
}

ScopedQueryTally::~ScopedQueryTally() { t_query_tally = prev_; }

WaitTally* CurrentQueryTally() { return t_query_tally; }

namespace {
thread_local WaitTally* t_operator_tally = nullptr;
}  // namespace

ScopedOperatorTally::ScopedOperatorTally(WaitTally* tally) {
  if (tally == nullptr) return;
  prev_ = t_operator_tally;
  t_operator_tally = tally;
  installed_ = true;
}

ScopedOperatorTally::~ScopedOperatorTally() {
  if (installed_) t_operator_tally = prev_;
}

WaitTally* CurrentOperatorTally() { return t_operator_tally; }

std::vector<WaitStatRow> GlobalSnapshot() {
  std::vector<WaitStatRow> rows;
  rows.reserve(kNumWaitTypes);
  metrics::Histogram** hists = GlobalHistograms();
  for (int i = 0; i < kNumWaitTypes; ++i) {
    WaitStatRow row;
    row.wait_type = kNames[i];
    row.waiting_tasks_count = hists[i]->Count();
    row.wait_time_ns = hists[i]->Sum();
    const int64_t max = hists[i]->Max();
    row.max_wait_time_ns = row.waiting_tasks_count > 0 ? max : 0;
    rows.push_back(std::move(row));
  }
  return rows;
}

void ResetGlobal() {
  metrics::Histogram** hists = GlobalHistograms();
  for (int i = 0; i < kNumWaitTypes; ++i) hists[i]->Reset();
}

}  // namespace waits
}  // namespace dhqp
