#ifndef PERFBENCH_LIB_RECORD_H_
#define PERFBENCH_LIB_RECORD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/value.h"
#include "src/common/waits.h"
#include "src/core/engine.h"

namespace perfbench {

/// One operation of a workload: a statement, or one NewOrder transaction.
/// The workload generates it from the run's seed; the engine only sees the
/// statement text and parameter values.
struct Op {
  int shape = 0;  ///< Index into Workload::shapes().
  std::string sql;
  std::map<std::string, dhqp::Value> params;
  int64_t warehouse = 0;  ///< tpcc_oltp only.
  int64_t customer = 0;
  int64_t order_id = 0;
  int64_t threshold = 0;  ///< federated_adhoc simple_scan_agg: k >= this.
};

/// Per-operator-kind totals from OperatorProfile trees. `rows` counts the
/// rows an operator processed: its children's output, or for a leaf (a scan
/// or remote operator) its own output.
struct OperatorTotals {
  int64_t self_ns = 0;
  int64_t rows = 0;
};

/// What one op did. The timed part fills `wall_ns`, `cpu_ns`, `results`
/// and the peak memory; everything else is derived after
/// the clock stops (Summarize, link deltas) so it costs the op nothing.
struct OpRecord {
  int shape = 0;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;  ///< Process CPU (all threads) during the op.
  bool ok = false;
  bool correct = false;

  /// Answers of the op's statements, kept until the oracle checked them.
  std::vector<dhqp::QueryResult> results;
  /// Engine-reported peak query memory (exec.memory_bytes, read right after
  /// each Execute): summed over statements, and the largest.
  int64_t peak_mem_sum = 0;
  int64_t max_peak_mem = 0;

  int64_t selects = 0;
  int64_t cache_hits = 0;
  int64_t group_exprs = 0;  ///< Summed over compiled statements.
  int64_t result_rows = 0;
  int64_t remote_rows = 0;
  int64_t input_rows = 0;   ///< Rows out of leaf operators.
  int64_t workers = 0;      ///< Exchange workers + parallel Concat branches.
  int64_t spills = 0;
  int64_t spill_bytes = 0;
  int64_t prefetch_stalls = 0;
  int64_t grant_bytes = 0;  ///< Governor grant estimate, summed.
  int64_t wait_ns[dhqp::waits::kNumWaitTypes] = {};
  std::map<std::string, OperatorTotals> operators;  ///< By kind.

  int64_t link_msgs = 0;
  int64_t link_rows = 0;
  int64_t link_bytes = 0;
  int64_t members_touched = 0;
};

/// Operator kind used in metric names (scan, filter, hash_join, ...) from
/// an OperatorProfile name such as "HashJoin(inner, keys:...)".
std::string OperatorKind(const std::string& profile_name);

/// Folds one statement's QueryResult into `rec` (cache hit, optimizer and
/// executor stats, waits, operator self times and the grant estimate, which
/// is clamped to `memory_budget` when that is > 0).
void Summarize(const dhqp::QueryResult& result, const dhqp::ExecOptions& exec,
               int64_t memory_budget, OpRecord* rec);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_RECORD_H_
