#ifndef DHQP_EXECUTOR_PREFETCH_H_
#define DHQP_EXECUTOR_PREFETCH_H_

#include <memory>
#include <optional>

#include "src/executor/exec.h"
#include "src/executor/worker.h"
#include "src/provider/provider.h"

namespace dhqp {

/// Asynchronous block-fetch pipeline over a (remote) rowset: a background
/// producer thread drains the inner rowset through NextBatch() into a
/// bounded queue while the consumer processes earlier batches — so the
/// link's per-message latency overlaps with local join/aggregate work
/// instead of being paid inline (§4.1.3's network-cost story, executed).
///
/// Threading contract: NextBatch/Restart are called by one consumer
/// thread; the inner rowset is touched only by the producer thread while it
/// runs (Restart joins the producer before rewinding the inner rowset).
/// Producer errors are carried across the queue and surface as the
/// consumer's Result<> once buffered batches are drained.
class PrefetchingRowset : public Rowset {
 public:
  /// The producer fetches blocks of `block_rows` rows — the cRows argument
  /// of IRowset::GetNextRows, chosen by the owning RemoteNode — and the
  /// queue holds `options.queue_depth()` of them. `profile` is the owning
  /// operator's slot, where this pipeline counts:
  /// the producer thread installs its link-charge sink — so remote traffic
  /// paid on the producer's behalf is attributed to the owning operator —
  /// and counts fetched blocks (`batches`) and consumer stalls
  /// (`queue_stalls`) into it; batches parked in the queue charge the
  /// profile's memory tracker and `query_mem` (the query-wide tracker).
  /// Either may be null (no counting / no attribution). Starts the
  /// producer immediately; the first batches are usually in flight before
  /// the consumer asks for the first row.
  PrefetchingRowset(std::unique_ptr<Rowset> inner, int block_rows,
                    const ExecOptions& options,
                    OperatorProfile* profile = nullptr,
                    MemTracker* query_mem = nullptr);
  ~PrefetchingRowset() override;

  PrefetchingRowset(const PrefetchingRowset&) = delete;
  PrefetchingRowset& operator=(const PrefetchingRowset&) = delete;

  const Schema& schema() const override { return schema_; }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override;

  /// Tears the producer down, rewinds the inner rowset and relaunches —
  /// the rescan path for prefetching nodes. Fails (NotSupported) when the
  /// inner rowset cannot rewind; callers fall back to reopening. Works after
  /// a transient producer fault: the new queue keeps no error and the new
  /// producer re-drains from the start.
  Status Restart() override;

 private:
  /// Opens a fresh queue and launches the producer on it.
  void Start();
  /// Closes the queue and joins the producer.
  void Stop();
  void ProducerLoop();

  std::unique_ptr<Rowset> inner_;
  Schema schema_;  ///< Copied: schema() must not race with the producer.
  int block_rows_;
  ExecOptions options_;
  OperatorProfile* profile_;
  MemTracker* query_mem_;

  std::optional<BatchQueue> queue_;
  QueryWorkers producer_;
};

}  // namespace dhqp

#endif  // DHQP_EXECUTOR_PREFETCH_H_
