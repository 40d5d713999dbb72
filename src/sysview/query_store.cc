#include "src/sysview/query_store.h"

#include <cctype>
#include <cstdio>

namespace dhqp {
namespace sysview {

std::string NormalizeStatement(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  size_t i = 0;
  const size_t n = sql.size();
  auto last_is_space = [&out] {
    return out.empty() || out.back() == ' ';
  };
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!last_is_space()) out.push_back(' ');
      ++i;
      continue;
    }
    if (c == '\'') {
      // String literal: skip to the closing quote (doubled quotes escape).
      ++i;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {
            i += 2;
            continue;
          }
          ++i;
          break;
        }
        ++i;
      }
      out.push_back('?');
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      // Numeric literal (only when not part of an identifier like "t2").
      char prev = out.empty() ? ' ' : out.back();
      bool in_word = std::isalnum(static_cast<unsigned char>(prev)) ||
                     prev == '_' || prev == '?';
      if (!in_word) {
        while (i < n && (std::isdigit(static_cast<unsigned char>(sql[i])) ||
                         sql[i] == '.')) {
          ++i;
        }
        out.push_back('?');
        continue;
      }
    }
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    ++i;
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

uint64_t FingerprintStatement(const std::string& sql) {
  const std::string normalized = NormalizeStatement(sql);
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis.
  for (char c : normalized) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;  // FNV prime.
  }
  return h;
}

std::string FingerprintToString(uint64_t fingerprint) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

void QueryStore::Record(std::shared_ptr<RequestState> request) {
  const RequestState& rec = *request;
  auto lock = waits::LockRecordingWait(mu_, waits::WaitType::kQueryStoreMutex);
  request->execution_id = next_execution_id_++;

  auto [it, inserted] = aggregates_.try_emplace(rec.fingerprint);
  FingerprintStats& agg = it->second;
  if (inserted) {
    agg.fingerprint = rec.fingerprint;
    agg.sample_statement = rec.statement;
    agg.statement_type = rec.statement_type;
    agg.min_duration_ns = rec.duration_ns;
    aggregate_order_.push_back(rec.fingerprint);
  }
  ++agg.executions;
  if (!rec.ok) ++agg.failures;
  if (rec.plan_cacheable) {
    if (rec.plan_cache_hit) {
      ++agg.cache_hits;
    } else {
      ++agg.cache_misses;
    }
  }
  agg.total_duration_ns += rec.duration_ns;
  if (rec.duration_ns < agg.min_duration_ns) {
    agg.min_duration_ns = rec.duration_ns;
  }
  if (rec.duration_ns > agg.max_duration_ns) {
    agg.max_duration_ns = rec.duration_ns;
  }
  agg.rows += rec.rows;
  agg.retries += rec.exec_stats.remote_retries;
  agg.timeouts += rec.exec_stats.remote_timeouts;
  agg.faults += rec.exec_stats.faults_injected;
  agg.warnings += rec.warnings;
  agg.wait_count += rec.waits.total_count();
  agg.total_wait_ns += rec.waits.total_ns();
  agg.last_execution_id = rec.execution_id;

  ring_.push_back(std::move(request));
  while (ring_.size() > capacity_) ring_.pop_front();
}

std::vector<std::shared_ptr<const RequestState>> QueryStore::Snapshot() const {
  auto lock = waits::LockRecordingWait(mu_, waits::WaitType::kQueryStoreMutex);
  return {ring_.begin(), ring_.end()};
}

std::vector<FingerprintStats> QueryStore::AggregateSnapshot() const {
  auto lock = waits::LockRecordingWait(mu_, waits::WaitType::kQueryStoreMutex);
  std::vector<FingerprintStats> out;
  out.reserve(aggregate_order_.size());
  for (uint64_t fp : aggregate_order_) {
    out.push_back(aggregates_.at(fp));
  }
  return out;
}

size_t QueryStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

int64_t QueryStore::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_execution_id_ - 1;
}

void QueryStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  aggregates_.clear();
  aggregate_order_.clear();
}

}  // namespace sysview
}  // namespace dhqp
