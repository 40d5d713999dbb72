#ifndef DHQP_EXECUTOR_EXCHANGE_H_
#define DHQP_EXECUTOR_EXCHANGE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/executor/exec.h"
#include "src/executor/worker.h"

namespace dhqp {

class ExchangeSegment;

/// Shares nested exchange segments between the sibling workers of one
/// fragment: all consumers of a repartition exchange must pop from ONE set
/// of producer threads, so the first worker to open the exchange creates
/// the segment and the rest attach. Keyed by the exchange's profile slot —
/// every worker's instance of an operator attaches to the same slot, and
/// each occurrence has its own (unlike the plan node pointer, which two
/// occurrences of a shared subplan share).
class ExchangeSegmentRegistry {
 public:
  std::shared_ptr<ExchangeSegment> GetOrCreate(
      const OperatorProfile* slot,
      const std::function<std::shared_ptr<ExchangeSegment>()>& factory);

  /// Drops all references. Segments no consumer kept alive stop here.
  void Clear();

 private:
  std::mutex mu_;
  std::map<const OperatorProfile*, std::shared_ptr<ExchangeSegment>>
      segments_;
};

/// The shared half of one exchange operator occurrence: P query workers
/// each run their own fragment instance (built via BuildFragmentTree) and
/// route whole RowBatches into C BatchQueues — queue index 0 for gather,
/// round-robin for distribute, HashRowKeys % C for repartition. The last
/// producer out closes every queue; a producer error fails them all early
/// (fail-fast) and surfaces to each consumer after its queue drains — the
/// same rows-then-error order a serial consumer observes.
class ExchangeSegment {
 public:
  /// `op` is the kExchange plan node; `child_profile` is the profile slot
  /// of op->children[0], shared by every producer's tree so per-worker
  /// stats merge additively. `exchange_profile` is the exchange operator's
  /// own slot: queue waits on either side of the segment (producer
  /// full-stalls, consumer empty-stalls), the queued batches' memory and
  /// the count of pushed batches are attributed to the exchange itself.
  ExchangeSegment(PhysicalOpPtr op, ExecContext* ctx,
                  OperatorProfile* child_profile,
                  OperatorProfile* exchange_profile);
  ~ExchangeSegment();

  ExchangeSegment(const ExchangeSegment&) = delete;
  ExchangeSegment& operator=(const ExchangeSegment&) = delete;

  /// Launches the producer threads. Idempotent — every consumer calls it
  /// from Open and the first one wins.
  void Start();

  /// Serves consumer stream `partition` (see BatchQueue::NextBatch).
  Result<bool> NextBatch(int partition, RowBatch* out, int max_rows) {
    return queues_[static_cast<size_t>(partition)]->NextBatch(out, max_rows);
  }

  /// Closes all queues and joins the producers. Safe to call repeatedly;
  /// runs in the destructor for early-abandoned segments (e.g. under Top).
  void Stop();

  int consumers() const { return consumers_; }

 private:
  void ProducerLoop(int p);
  Status RunProducer(int p);
  /// The pumps pull `batch_rows`-row batches from the producer's fragment
  /// tree; repartition re-batches per consumer to the same size.
  Status PumpGatherOrDistribute(ExecNode* tree, int p, int batch_rows);
  Status PumpRepartition(ExecNode* tree, int batch_rows);
  /// False when the queue closed (consumer gone or a peer errored).
  bool PushBatch(int queue, RowBatch&& batch);

  PhysicalOpPtr op_;
  ExecContext* ctx_;
  OperatorProfile* child_profile_;
  OperatorProfile* exchange_profile_;
  int producers_;
  int consumers_;
  std::vector<int> key_pos_;  ///< exchange_keys positions in child output.
  std::vector<std::unique_ptr<BatchQueue>> queues_;
  ExchangeSegmentRegistry nested_;  ///< Exchanges inside the fragment.
  std::mutex start_mu_;
  bool started_ = false;  ///< Guarded by start_mu_.
  std::atomic<int> active_{0};
  QueryWorkers workers_;
};

/// Consumer-side exchange operator: one instance per consumer stream,
/// bound to its partition's queue. The top-level instance (in the serial
/// region of the plan, `registry` null) owns its segment privately;
/// instances inside a fragment share the segment through the enclosing
/// registry. The segment counts in this node's profile slot and runs the
/// child against the slot's child. Restart is unsupported by design — the
/// optimizer marks exchanges non-rescannable, so a Spool enforcer sits
/// above when rescans are required.
class ExchangeNode : public ExecNode {
 public:
  ExchangeNode(PhysicalOpPtr op, ExecContext* ctx,
               ExchangeSegmentRegistry* registry, int partition);

  Status Open() override;
  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    return segment_->NextBatch(partition_, out, max_rows);
  }
  Status Restart() override {
    return Status::NotSupported("exchange does not support Restart");
  }

 private:
  ExecContext* ctx_;
  ExchangeSegmentRegistry* registry_;
  int partition_;
  std::shared_ptr<ExchangeSegment> segment_;
};

}  // namespace dhqp

#endif  // DHQP_EXECUTOR_EXCHANGE_H_
