#ifndef DHQP_EXECUTOR_EXEC_H_
#define DHQP_EXECUTOR_EXEC_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/executor/eval.h"
#include "src/executor/profile.h"
#include "src/fulltext/service.h"
#include "src/optimizer/physical.h"

namespace dhqp {

namespace sysview {
struct RequestState;  // requests.h
}  // namespace sysview

/// Runtime knobs for remote data movement. Independent of plan choice —
/// and so excluded from the plan-cache key — with one exception: `dop`
/// feeds the optimizer (OptimizerOptions::max_dop) and is part of the key.
struct ExecOptions {
  /// Max degree of intra-query parallelism: worker threads a parallel
  /// region (between exchange operators) may use. 1 = serial plans only
  /// (exact pre-PR behavior). The optimizer decides per query whether
  /// parallelism pays (exchange startup + per-row transfer vs divided
  /// operator work); remote subtrees always stay serial.
  int dop = 1;
  /// Drain remote scans / remote queries through a background prefetch
  /// thread so link latency overlaps with local processing.
  bool enable_remote_prefetch = true;
  /// Rows per block fetch (Rowset::NextBatch) on prefetched remote streams
  /// — the IRowset::GetNextRows cRows argument. Inline remote streams read
  /// the provider's own blocks.
  int remote_batch_rows = 512;
  /// Rows per batch in the *local* executor: operators stream RowBatches of
  /// up to this many rows through ExecNode::NextBatch, and predicates and
  /// scalars evaluate over whole batches (selection vectors), amortizing the
  /// per-row virtual dispatch of the Volcano model. The same size is the
  /// publish unit of exchange producers and parallel Concat workers.
  /// Results are identical at every size (the batch differential suite
  /// holds this); remote wire blocks never depend on it.
  /// Values below 1 mean one-row batches (see batch_rows()).
  int exec_batch_rows = 1024;
  /// Batches buffered ahead of the consumer (double buffering and beyond)
  /// in every worker queue: prefetch, exchange and parallel Concat. Values
  /// below 1 mean a one-batch queue (see queue_depth()).
  int prefetch_queue_depth = 4;
  /// Max Concat branches (partitioned-view members) drained concurrently;
  /// <= 1 keeps the strictly sequential executor.
  int concat_dop = 4;
  /// Graceful degradation for partitioned views: when a member fails with a
  /// network error *before contributing any row*, drop that member from the
  /// result (counted in ExecStats::members_skipped, reported through
  /// ExecContext::warnings) instead of failing the query. A member that
  /// already emitted rows still fails the query — never a silent partial
  /// member. Off by default: partial answers must be opted into.
  bool skip_unreachable_members = false;

  /// exec_batch_rows clamped to a usable batch size (>= 1).
  int batch_rows() const { return exec_batch_rows > 0 ? exec_batch_rows : 1; }
  /// prefetch_queue_depth clamped to a usable queue depth (>= 1).
  int queue_depth() const {
    return prefetch_queue_depth > 0 ? prefetch_queue_depth : 1;
  }
};

/// Shared execution state for one query. Not copyable (warnings_mu);
/// constructed per execution and outlives the exec tree.
struct ExecContext {
  Catalog* catalog = nullptr;
  fulltext::FullTextService* fulltext = nullptr;
  std::map<std::string, Value> params;  ///< User + correlation parameters.
  int64_t current_date = 0;
  ExecOptions options;
  /// Non-fatal execution notices (e.g. members skipped by
  /// skip_unreachable_members). Guarded by warnings_mu: parallel Concat
  /// workers append concurrently.
  std::mutex warnings_mu;
  std::vector<std::string> warnings;
  /// The statement's record (wired by RunCachedPlan; null for a bare
  /// executor run). ExecutePlan publishes the profile tree to it before
  /// Open, so dm_exec_requests reads live row counts mid-statement. Must
  /// outlive the execution.
  sysview::RequestState* request = nullptr;
  /// Per-operator actual stats tree (rows, wall time, remote traffic, waits,
  /// memory — the STATISTICS PROFILE analog behind EXPLAIN ANALYZE), grown
  /// by BuildExecTree for every execution. Every executor count lives in
  /// it; the statement's ExecStats is its fold (FoldExecStats). Shared so
  /// QueryResult can keep it after the context dies; MUST outlive the exec
  /// tree (close times are recorded as nodes destruct).
  std::shared_ptr<OperatorProfile> profile;
  /// Query-wide memory tracker (the current request's, wired by
  /// RunCachedPlan; null for a bare executor run). Buffering operators and
  /// queue stashes charge it alongside their per-operator slot so
  /// dm_exec_requests can report one live memory_bytes per query. Must
  /// outlive the exec tree — releases happen as nodes destruct.
  MemTracker* memory = nullptr;
  /// Workload-governor memory grant: when > 0, buffering operators spill
  /// (Grace partitions, external merge runs) instead of letting `memory`
  /// grow past this many bytes. Enforcement reads the `memory` tracker.
  /// 0 = unlimited (exact pre-governor behavior).
  int64_t grant_bytes = 0;
  /// Directory for spill temp files; empty = the platform temp dir.
  std::string spill_dir;
};

/// A batch-at-a-time executor node: Open() prepares, NextBatch() streams
/// rows, Restart() rewinds (re-evaluating correlation parameters — the
/// mechanism behind parameterized remote queries).
class ExecNode {
 public:
  explicit ExecNode(PhysicalOpPtr op) : op_(std::move(op)) {
    for (size_t i = 0; i < op_->output_cols.size(); ++i) {
      col_pos_[op_->output_cols[i]] = static_cast<int>(i);
    }
  }
  virtual ~ExecNode() = default;

  virtual Status Open() = 0;
  /// Fills `out` (cleared first) with up to `max_rows` rows. Same contract
  /// as Rowset::NextBatch — false only at end of data (out left empty); a
  /// partial batch returns true. A failing call surfaces no rows. Open and
  /// Restart reset any rows an operator buffered from its children.
  virtual Result<bool> NextBatch(RowBatch* out, int max_rows) = 0;
  virtual Status Restart() = 0;

  const PhysicalOp& op() const { return *op_; }
  /// Shared plan node (the profiling wrapper shares its inner node's op).
  const PhysicalOpPtr& op_ptr() const { return op_; }
  /// Column-id -> output position.
  const std::map<int, int>& col_pos() const { return col_pos_; }

  /// Attaches this operator occurrence's profile (owned by the context's
  /// profile tree); remote nodes attribute their link traffic through it.
  void set_profile(OperatorProfile* profile) { profile_ = profile; }
  OperatorProfile* profile() const { return profile_; }

 protected:
  /// NextBatch for operators that produce one row at a time — join and
  /// stream-aggregate state machines, spill-file merges, bookmark fetches,
  /// and remote cursors whose wire cadence must stay the provider's own.
  /// Calls `next_row(Row*) -> Result<bool>` until `max_rows` rows are
  /// collected or it reports end of data. A mid-batch error is deferred:
  /// the rows collected so far are returned and the error surfaces on the
  /// following call, so rows and errors reach the consumer in the same
  /// order at every batch size — which keeps decisions such as Concat's
  /// member-skip rule independent of the batch size.
  template <typename NextRow>
  Result<bool> FillBatch(RowBatch* out, int max_rows, NextRow&& next_row) {
    out->clear();
    if (!deferred_status_.ok()) {
      Status st = std::move(deferred_status_);
      deferred_status_ = Status::OK();
      return st;
    }
    Row row;
    while (static_cast<int>(out->rows.size()) < max_rows) {
      Result<bool> has = next_row(&row);
      if (!has.ok()) {
        if (out->rows.empty()) return has.status();
        deferred_status_ = has.status();
        return true;
      }
      if (!*has) break;
      out->rows.push_back(std::move(row));
    }
    return !out->rows.empty();
  }

  PhysicalOpPtr op_;
  std::map<int, int> col_pos_;
  OperatorProfile* profile_ = nullptr;

 private:
  Status deferred_status_;  ///< Mid-batch error held back by FillBatch.
};

/// Builds an executable tree from a physical plan: grows the whole profile
/// tree into ctx->profile first, then builds the serial region's exec nodes
/// against its slots.
Result<std::unique_ptr<ExecNode>> BuildExecTree(const PhysicalOpPtr& plan,
                                                ExecContext* ctx);

class ExchangeSegmentRegistry;  // exchange.h

/// Per-worker context for building one exchange-fragment instance: which
/// partition this worker owns, the fragment's total worker count, and the
/// registry that lets sibling workers share nested exchange segments.
struct FragmentContext {
  int partition = 0;
  int dop = 1;
  ExchangeSegmentRegistry* exchanges = nullptr;
};

/// Builds an executable tree for one worker of an exchange fragment, with
/// the same walker as BuildExecTree, against the existing profile subtree
/// `profile` (grown by BuildExecTree) — per-worker instances of an operator
/// aggregate additively into one shared OperatorProfile, so EXPLAIN ANALYZE
/// totals stay truthful at any dop. Called by ExchangeSegment from its
/// producer threads.
Result<std::unique_ptr<ExecNode>> BuildFragmentTree(
    const PhysicalOpPtr& plan, ExecContext* ctx, OperatorProfile* profile,
    const FragmentContext& frag);

/// Runs a plan to completion, returning its rows in the plan's output
/// column order.
Result<std::vector<Row>> ExecutePlan(const PhysicalOpPtr& plan,
                                     ExecContext* ctx);

}  // namespace dhqp

#endif  // DHQP_EXECUTOR_EXEC_H_
