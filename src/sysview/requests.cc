#include "src/sysview/requests.h"

#include <algorithm>
#include <utility>

#include "src/common/fastclock.h"

namespace dhqp {
namespace sysview {

namespace {

/// The one cap on stored statement text, applied at registration: every
/// surface that shows a statement (dm_exec_requests, the query store,
/// dm_exec_query_memory_grants) reads the request's copy, so a pathological
/// generated query cannot bloat any of them. They are monitoring surfaces,
/// not a SQL archive; the fingerprint hashes the full text.
constexpr size_t kStatementCap = 512;

}  // namespace

const char* PhaseName(RequestPhase phase) {
  switch (phase) {
    case RequestPhase::kParse:
      return "parse";
    case RequestPhase::kBind:
      return "bind";
    case RequestPhase::kOptimize:
      return "optimize";
    case RequestPhase::kQueued:
      return "queued";
    case RequestPhase::kExecute:
      return "execute";
    case RequestPhase::kFinished:
      return "finished";
  }
  return "unknown";
}

std::shared_ptr<const OperatorProfile> RequestState::profile() const {
  std::lock_guard<std::mutex> lock(profile_mu_);
  return profile_;
}

void RequestState::set_profile(std::shared_ptr<const OperatorProfile> p) {
  std::lock_guard<std::mutex> lock(profile_mu_);
  profile_ = std::move(p);
}

RequestRegistry& RequestRegistry::Global() {
  static RequestRegistry* registry = new RequestRegistry();  // Leaked.
  return *registry;
}

std::shared_ptr<RequestState> RequestRegistry::Register(
    const std::string& engine, const std::string& activity_id,
    const std::string& statement, int dop) {
  auto state = std::make_shared<RequestState>();
  state->request_id = next_id_.fetch_add(1, std::memory_order_relaxed);
  state->engine = engine;
  state->activity_id = activity_id;
  state->statement = statement.substr(0, kStatementCap);
  state->dop = dop;
  state->start_ns = fastclock::NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  live_.emplace(state->request_id, state);
  return state;
}

void RequestRegistry::Unregister(int64_t request_id) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.erase(request_id);
}

std::vector<std::shared_ptr<RequestState>> RequestRegistry::Snapshot() const {
  std::vector<std::shared_ptr<RequestState>> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(live_.size());
  for (const auto& [id, state] : live_) out.push_back(state);
  return out;
}

RequestScope::RequestScope(const std::string& engine,
                           const std::string& activity_id,
                           const std::string& statement, int dop)
    : state_(RequestRegistry::Global().Register(engine, activity_id, statement,
                                                dop)) {}

RequestScope::~RequestScope() {
  state_->SetPhase(RequestPhase::kFinished);
  RequestRegistry::Global().Unregister(state_->request_id);
}

int64_t RowsProcessed(const OperatorProfile& root) {
  int64_t rows = root.rows_out.load(std::memory_order_relaxed);
  for (const auto& child : root.children) rows += RowsProcessed(*child);
  return rows;
}

int64_t BatchesProcessed(const OperatorProfile& root) {
  int64_t batches = root.batches.load(std::memory_order_relaxed) +
                    root.exec_batches.load(std::memory_order_relaxed);
  for (const auto& child : root.children) batches += BatchesProcessed(*child);
  return batches;
}

namespace {

void LeafProgress(const OperatorProfile& p, double* estimated,
                  double* actual) {
  if (p.children.empty()) {
    if (p.estimated_rows > 0) {
      *estimated += p.estimated_rows;
      *actual += static_cast<double>(
          std::min<int64_t>(p.rows_out.load(std::memory_order_relaxed),
                            static_cast<int64_t>(p.estimated_rows)));
    }
    return;
  }
  for (const auto& child : p.children) LeafProgress(*child, estimated, actual);
}

}  // namespace

int PercentComplete(const OperatorProfile& root) {
  double estimated = 0;
  double actual = 0;
  LeafProgress(root, &estimated, &actual);
  if (estimated <= 0) return 0;
  const int pct = static_cast<int>(100.0 * actual / estimated);
  return std::max(0, std::min(100, pct));
}

}  // namespace sysview
}  // namespace dhqp
