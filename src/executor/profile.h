#ifndef DHQP_EXECUTOR_PROFILE_H_
#define DHQP_EXECUTOR_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/fastclock.h"
#include "src/common/row.h"
#include "src/common/waits.h"
#include "src/net/network.h"
#include "src/optimizer/physical.h"

namespace dhqp {

/// Memory accounting for bytes a component is currently holding: buffering
/// operators (hash-join tables, aggregate hash tables, sort/spool buffers)
/// and queue stashes (exchange, prefetch) charge on materialization and
/// release on teardown. `current` is live-readable (dm_exec_requests shows
/// in-flight footprint); `peak` is the high-water mark that survives the
/// query (dm_exec_operator_stats, EXPLAIN ANALYZE `mem=`). Atomic because
/// exchange producers and prefetch threads charge concurrently with the
/// consumer, and DMV scans read mid-flight.
struct MemTracker {
  std::atomic<int64_t> current_{0};
  std::atomic<int64_t> peak_{0};

  void Add(int64_t bytes) {
    const int64_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    int64_t prev = peak_.load(std::memory_order_relaxed);
    while (now > prev &&
           !peak_.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
    }
  }
  void Release(int64_t bytes) {
    current_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  int64_t current() const { return current_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
};

/// Cheap estimate of the heap footprint of one materialized row: the value
/// vector's capacity plus owned string payloads. An accounting estimate (no
/// allocator introspection), consistent across operators so relative sizes
/// compare.
inline int64_t RowMemBytes(const Row& row) {
  int64_t bytes = static_cast<int64_t>(sizeof(Row)) +
                  static_cast<int64_t>(row.capacity() * sizeof(Value));
  for (const Value& v : row) {
    if (!v.is_null() && v.type() == DataType::kString) {
      bytes += static_cast<int64_t>(v.string_value().capacity());
    }
  }
  return bytes;
}

/// The planning-time analog of RowMemBytes for a row of these types: the
/// same fixed overhead and per-value cost, and a flat allowance for each
/// string payload. Grant estimates price rows with it.
inline int64_t EstRowBytes(const std::vector<DataType>& types) {
  int64_t bytes = static_cast<int64_t>(sizeof(Row)) +
                  static_cast<int64_t>(types.size() * sizeof(Value));
  for (DataType t : types) {
    if (t == DataType::kString) bytes += 32;
  }
  return bytes;
}

// What each kind of hash-table entry charges, from the bytes of its row
// and key: RowMemBytes when an operator charges the entry, EstRowBytes when
// the grant estimate prices it, so the two agree.

/// A hash-join build entry: the build row and the key copy stored with it.
inline int64_t HashJoinEntryBytes(int64_t row_bytes, int64_t key_bytes) {
  return row_bytes + key_bytes;
}

/// A hash-aggregate group: its key and one accumulator per aggregate.
/// Defined beside the accumulator type, in exec.cc.
int64_t HashGroupBytes(int64_t key_bytes, size_t aggregates);

/// Actual execution statistics for one operator occurrence in an exec tree
/// — the SET STATISTICS PROFILE analog, and the one place the executor
/// counts: each event is counted once, in the slot of the operator that
/// caused it, and the per-statement totals (ExecStats) are a fold of the
/// tree. The tree mirrors the physical plan
/// (one node per operator occurrence; memo winners can share PhysicalOp
/// subplans, so profiles hang off the exec tree, not the plan). Counters
/// are atomic: parallel Concat branches and prefetch producer threads
/// update an operator's profile concurrently with the consumer. Times are
/// accumulated in fastclock ticks and converted to ns on read; they are
/// *inclusive* — a parent's NextBatch time contains its children's, like
/// Showplan subtree costs. Every call is timed and every count is exact.
struct OperatorProfile {
  int id = 0;                ///< Pre-order operator id; matches EXPLAIN.
  PhysicalOpKind kind{};     ///< The operator; steers the ExecStats fold.
  std::string name;          ///< PhysicalOp::Describe() snapshot.
  std::string link;          ///< Linked-server name for remote ops.
  double estimated_rows = 0;
  double estimated_cost = 0;

  std::atomic<int64_t> rows_out{0};
  /// Local scan or range with a predicate: the live rows the predicate was
  /// run on, summed over workers (showplan's "Actual Rows Read"); rows_out
  /// counts the ones that passed. 0 on every other operator.
  std::atomic<int64_t> rows_read{0};
  std::atomic<int64_t> batches{0};   ///< Remote block fetches delivered here.
  std::atomic<int64_t> exec_batches{0};  ///< Local executor NextBatch calls
                                         ///< served; distinct from
                                         ///< `batches`, which counts remote
                                         ///< wire blocks.
  std::atomic<int64_t> opens{0};
  std::atomic<int64_t> restarts{0};  ///< Rescans (rewinds) of this operator.
  std::atomic<int64_t> open_ticks{0};
  std::atomic<int64_t> next_ticks{0};
  std::atomic<int64_t> close_ticks{0};

  /// Link traffic attributed to this operator (installed as the calling
  /// thread's charge sink around remote operator calls).
  net::LinkChargeSink link_charges;

  /// Blocked time attributed to this operator, per wait type: queue stalls
  /// inside this operator's Next/producer threads, link wire time + retry
  /// backoff of its remote calls. Unlike open/next/close ticks these are
  /// *exclusive* — one blocked interval lands in exactly one operator — so
  /// summing wait_tally across the tree never double-counts.
  waits::WaitTally wait_tally;

  /// Bytes this operator is holding (hash tables, sort buffers, queue
  /// stashes). `mem.current()` is the live footprint dm_exec_requests sums;
  /// `mem.peak()` survives completion for dm_exec_operator_stats and the
  /// EXPLAIN ANALYZE `mem=` annotation.
  MemTracker mem;

  /// Spill activity under a memory grant: files this operator wrote (sort
  /// runs, Grace partitions, spooled results) and the serialized bytes they
  /// received. Surfaces as the EXPLAIN ANALYZE `spill=` annotation and the
  /// dm_exec_operator_stats spill columns.
  std::atomic<int64_t> spills{0};
  std::atomic<int64_t> spill_bytes{0};

  /// Events particular operators count, named by the operator kind.
  std::atomic<int64_t> remote_opens{0};  ///< Remote op: opens that succeeded
                                         ///< (RemoteQuery: commands run).
  std::atomic<int64_t> remote_fetches{0};    ///< RemoteFetch: lookups.
  std::atomic<int64_t> startup_skips{0};     ///< StartupFilter: skips.
  std::atomic<int64_t> spool_rescans{0};     ///< Spool: rescans served.
  std::atomic<int64_t> members_skipped{0};   ///< Concat: members dropped.
  std::atomic<int64_t> worker_branches{0};   ///< Concat: worker branches.
  std::atomic<int64_t> exchange_batches{0};  ///< Exchange: batches pushed.
  std::atomic<int64_t> queue_stalls{0};  ///< Worker-queue owner: blocking
                                         ///< pops that returned a batch.

  std::vector<std::unique_ptr<OperatorProfile>> children;

  int64_t open_ns() const { return fastclock::ToNs(open_ticks.load()); }
  int64_t next_ns() const { return fastclock::ToNs(next_ticks.load()); }
  int64_t close_ns() const { return fastclock::ToNs(close_ticks.load()); }
  /// Inclusive wall time across open + next + close.
  int64_t total_ns() const {
    return fastclock::ToNs(open_ticks.load() + next_ticks.load() +
                           close_ticks.load());
  }
};

/// One statement's executor counters. A plain value: FoldExecStats computes
/// it from the statement's profile tree, and every per-statement surface —
/// QueryResult::exec_stats, the exec.* metrics, the query store and
/// dm_exec_requests — reads that fold, so they cannot disagree.
struct ExecStats {
  int64_t remote_commands = 0;    ///< Remote ICommand executions.
  int64_t remote_opens = 0;       ///< Remote rowset/index opens.
  int64_t remote_fetches = 0;     ///< Remote bookmark fetches.
  int64_t rows_from_remote = 0;   ///< Rows from linked servers.
  int64_t remote_batches = 0;     ///< Block fetches from remotes.
  int64_t prefetch_stalls = 0;    ///< Blocking queue pops that got a batch.
  int64_t startup_skips = 0;      ///< Subtrees skipped by startup filters.
  int64_t partitions_opened = 0;  ///< Concat branches executed.
  int64_t parallel_branches = 0;  ///< Concat branches and exchange workers
                                  ///< run on worker threads.
  int64_t exchange_batches = 0;   ///< RowBatches through exchange queues.
  int64_t spool_rescans = 0;      ///< Rescans served from spools.
  int64_t rows_output = 0;
  int64_t exec_batches = 0;  ///< Batches the top-level sink pulled;
                             ///< rows_output over this is the effective
                             ///< batch size.
  int64_t remote_retries = 0;   ///< Link message resends.
  int64_t remote_timeouts = 0;  ///< Per-message deadline misses.
  int64_t faults_injected = 0;  ///< Attempts failed by the fault injector.
  int64_t members_skipped = 0;  ///< Unreachable partitioned-view members
                                ///< skipped by the degradation knob.
  int64_t spills = 0;       ///< Spill files written under a memory grant.
  int64_t spill_bytes = 0;  ///< Serialized bytes those files received.

  bool operator==(const ExecStats&) const = default;
};

/// Sums a statement's profile tree into its ExecStats. Exact once the
/// executor has unwound (every worker joined) — on success and on failure
/// alike; mid-flight it reads a live, monotonically growing tree.
ExecStats FoldExecStats(const OperatorProfile& root);

/// EXPLAIN ANALYZE rendering: one line per operator,
///   `#<id> <name>  [est_rows=.. act_rows=.. time_ms=.. opens=..]`
/// plus rows-read (read=, on a scan with a predicate), restart, remote-link
/// (link=/msgs=/batches=/retries=/timeouts=), wire-row, peak-memory (mem=)
/// and wait annotations where they apply.
std::string RenderOperatorProfile(const OperatorProfile& profile);

/// One operator occurrence of a flattened profile tree: the node plus its
/// parent's pre-order id (0 for the root). The profile must outlive the
/// flattened view (dm_exec_operator_stats flattens profiles it holds via
/// shared_ptr, so this is guaranteed there).
struct FlatOperator {
  const OperatorProfile* op = nullptr;
  int parent_id = 0;
};

/// Flattens a profile tree in pre-order — the same visit order that assigns
/// the ids EXPLAIN prints, so row i of the result carries id matching the
/// EXPLAIN line i.
std::vector<FlatOperator> FlattenOperatorProfile(const OperatorProfile& root);

}  // namespace dhqp

#endif  // DHQP_EXECUTOR_PROFILE_H_
