#ifndef DHQP_EXECUTOR_EXCHANGE_H_
#define DHQP_EXECUTOR_EXCHANGE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/executor/bounded_queue.h"
#include "src/executor/exec.h"

namespace dhqp {

class ExchangeSegment;

/// Shares nested exchange segments between the sibling workers of one
/// fragment: all consumers of a repartition exchange must pop from ONE set
/// of producer threads, so the first worker to open the exchange creates
/// the segment and the rest attach. Keyed by the exchange's occurrence
/// ordinal within the fragment plan — every worker builds the same plan in
/// the same order, so ordinals agree across workers (and, unlike the plan
/// node pointer, distinguish two occurrences of a shared subplan).
class ExchangeSegmentRegistry {
 public:
  std::shared_ptr<ExchangeSegment> GetOrCreate(
      int ordinal,
      const std::function<std::shared_ptr<ExchangeSegment>()>& factory);

  /// Drops all references. Segments no consumer kept alive stop here.
  void Clear();

 private:
  std::mutex mu_;
  std::map<int, std::shared_ptr<ExchangeSegment>> segments_;
};

/// The shared half of one exchange operator occurrence: P producer threads
/// each run their own fragment instance (built via BuildFragmentTree) and
/// route whole RowBatches into C bounded queues — queue index 0 for gather,
/// round-robin for distribute, HashRowKeys % C for repartition. Buffers
/// recycle through a bounded stash so the steady state allocates nothing.
/// The last producer out closes every queue; a producer error closes them
/// early (fail-fast) and surfaces to consumers after the queues drain —
/// the same rows-then-error order a serial consumer observes.
class ExchangeSegment {
 public:
  /// `op` is the kExchange plan node; `child_profile` is the profile slot
  /// of op->children[0], shared by every producer's tree so per-worker
  /// stats merge additively. `exchange_profile` is the exchange operator's
  /// own slot: queue waits on either side of the segment (producer
  /// full-stalls, consumer empty-stalls) and the queued batches' memory are
  /// attributed to the exchange itself.
  ExchangeSegment(PhysicalOpPtr op, ExecContext* ctx,
                  OperatorProfile* child_profile,
                  OperatorProfile* exchange_profile);
  ~ExchangeSegment();

  ExchangeSegment(const ExchangeSegment&) = delete;
  ExchangeSegment& operator=(const ExchangeSegment&) = delete;

  /// Launches the producer threads. Idempotent — every consumer calls it
  /// from Open and the first one wins.
  void Start();

  /// Blocking pop for consumer stream `partition`. True with a batch;
  /// false at end of data; the first producer error after the drain.
  Result<bool> Pop(int partition, RowBatch* out);

  /// Returns a drained buffer to the recycle stash (capacity preserved).
  void Recycle(RowBatch&& batch);

  /// Closes all queues and joins the producers. Safe to call repeatedly;
  /// runs in the destructor for early-abandoned segments (e.g. under Top).
  void Stop();

  int producers() const { return producers_; }
  int consumers() const { return consumers_; }

 private:
  void ProducerLoop(int p);
  Status RunProducer(int p);
  /// The pumps pull `batch_rows`-row batches from the producer's fragment
  /// tree; repartition re-batches per consumer to the same size.
  Status PumpGatherOrDistribute(ExecNode* tree, int p, int batch_rows);
  Status PumpRepartition(ExecNode* tree, int batch_rows);
  void RecordError(const Status& status);
  void CloseAll();
  void JoinAll();
  RowBatch TakeRecycled();
  /// False when the queue closed (consumer gone or a peer errored).
  bool PushBatch(int queue, RowBatch&& batch);
  /// Memory accounting for rows parked in the queues: producers charge on
  /// push, consumers release on pop, the destructor releases whatever a
  /// closed queue still held. Charged to the exchange operator's profile
  /// slot and the query tracker.
  void ChargeQueueMem(int64_t bytes);
  void ReleaseQueueMem(int64_t bytes);

  PhysicalOpPtr op_;
  ExecContext* ctx_;
  OperatorProfile* child_profile_;
  OperatorProfile* exchange_profile_;
  int producers_;
  int consumers_;
  std::vector<int> key_pos_;  ///< exchange_keys positions in child output.
  std::vector<std::unique_ptr<BoundedQueue<RowBatch>>> queues_;
  ExchangeSegmentRegistry nested_;  ///< Exchanges inside the fragment.
  std::vector<std::thread> threads_;
  std::mutex start_mu_;
  bool started_ = false;
  std::atomic<int> active_{0};
  std::mutex error_mu_;
  Status first_error_;
  std::mutex join_mu_;
  bool joined_ = false;
  std::mutex recycle_mu_;
  std::vector<RowBatch> recycle_;
  size_t recycle_cap_;
  /// Bytes currently parked in the queues (not yet popped); what the
  /// destructor must release for abandoned segments.
  std::atomic<int64_t> queued_bytes_{0};
};

/// Consumer-side exchange operator: one instance per consumer stream,
/// bound to its partition's queue. The top-level instance (in the serial
/// region of the plan) owns its segment privately; instances inside a
/// fragment share the segment through the enclosing registry. Restart is
/// unsupported by design — the optimizer marks exchanges non-rescannable,
/// so a Spool enforcer sits above when rescans are required.
class ExchangeNode : public ExecNode {
 public:
  ExchangeNode(PhysicalOpPtr op, ExecContext* ctx,
               OperatorProfile* child_profile,
               ExchangeSegmentRegistry* registry, int ordinal, int partition);

  Status Open() override;
  Result<bool> NextBatch(RowBatch* out, int max_rows) override;
  Status Restart() override {
    return Status::NotSupported("exchange does not support Restart");
  }

 private:
  /// Ensures current_ has unserved rows; sets done_ at end of data.
  Result<bool> FillCurrent();

  ExecContext* ctx_;
  OperatorProfile* child_profile_;
  ExchangeSegmentRegistry* registry_;
  int ordinal_;
  int partition_;
  std::shared_ptr<ExchangeSegment> segment_;
  RowBatch current_;
  size_t pos_ = 0;
  bool done_ = false;
};

}  // namespace dhqp

#endif  // DHQP_EXECUTOR_EXCHANGE_H_
