#include "lib/record.h"

#include <algorithm>

#include "lib/stats.h"
#include "src/core/governor.h"

namespace perfbench {

namespace {

// Walks a profile tree, charging each operator's self time and rows to its
// kind. Exchange children run on producer threads, and so do Concat
// branches when Concat runs them in parallel; their time is not part of the
// parent's inclusive time.
void WalkProfile(const dhqp::OperatorProfile& node, bool concat_on_workers,
                 OpRecord* rec) {
  const std::string kind = OperatorKind(node.name);
  const bool children_elsewhere =
      kind == "exchange" || (kind == "concat" && concat_on_workers);
  std::vector<ChildTime> children;
  int64_t rows_in = 0;
  for (const auto& child : node.children) {
    children.push_back(ChildTime{child->total_ns(), children_elsewhere});
    rows_in += child->rows_out.load();
    WalkProfile(*child, concat_on_workers, rec);
  }
  if (node.children.empty()) {
    rows_in = node.rows_out.load();
    rec->input_rows += rows_in;
  }
  OperatorTotals& totals = rec->operators[kind];
  totals.self_ns += OperatorSelfNs(node.total_ns(), children);
  totals.rows += rows_in;
}

}  // namespace

std::string OperatorKind(const std::string& profile_name) {
  const size_t end = profile_name.find_first_of("([ ");
  const std::string head = profile_name.substr(0, end);
  static const std::map<std::string, std::string> kKinds = {
      {"TableScan", "scan"},         {"IndexRange", "scan"},
      {"Filter", "filter"},          {"StartupFilter", "filter"},
      {"Project", "project"},        {"HashJoin", "hash_join"},
      {"NestedLoopsJoin", "nested_loops_join"},
      {"MergeJoin", "merge_join"},   {"HashAggregate", "hash_aggregate"},
      {"StreamAggregate", "stream_aggregate"},
      {"Sort", "sort"},              {"Top", "top"},
      {"Spool", "spool"},            {"Exchange", "exchange"},
      {"Concat", "concat"},          {"RemoteQuery", "remote_query"},
      {"RemoteScan", "remote_scan"}, {"RemoteRange", "remote_scan"},
      {"RemoteFetch", "remote_scan"}};
  auto it = kKinds.find(head);
  return it == kKinds.end() ? "other" : it->second;
}

void Summarize(const dhqp::QueryResult& result, const dhqp::ExecOptions& exec,
               int64_t memory_budget, OpRecord* rec) {
  if (result.plan == nullptr) return;  // DML / DDL.
  ++rec->selects;
  if (result.plan_cache_hit) {
    ++rec->cache_hits;
  } else {
    rec->group_exprs += result.opt_stats.group_exprs;
  }
  if (result.rowset != nullptr) {
    rec->result_rows += static_cast<int64_t>(result.rowset->rows().size());
  }
  const dhqp::ExecStats& s = result.exec_stats;
  rec->remote_rows += s.rows_from_remote;
  rec->workers += s.parallel_branches;
  rec->spills += s.spills;
  rec->spill_bytes += s.spill_bytes;
  rec->prefetch_stalls += s.prefetch_stalls;
  for (int i = 0; i < dhqp::waits::kNumWaitTypes; ++i) {
    rec->wait_ns[i] += result.wait_totals.ns[i];
  }
  int64_t grant = dhqp::governor::EstimateGrantBytes(result.plan, exec);
  if (memory_budget > 0) grant = std::min(grant, memory_budget);
  rec->grant_bytes += grant;
  if (result.profile != nullptr) {
    WalkProfile(*result.profile, exec.concat_dop > 1, rec);
  }
}

}  // namespace perfbench
