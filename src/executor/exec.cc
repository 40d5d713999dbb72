#include "src/executor/exec.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <numeric>
#include <optional>
#include <set>
#include <vector>

#include "src/common/waits.h"
#include "src/executor/exchange.h"
#include "src/executor/prefetch.h"
#include "src/executor/spill.h"
#include "src/executor/worker.h"
#include "src/storage/btree.h"
#include "src/sysview/requests.h"

namespace dhqp {

namespace {

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

// Hands out the next slice of a materialized row vector as a batch —
// the bulk path shared by every operator that buffers its output (sort,
// spool, hash aggregate, const table).
bool SliceRows(const std::vector<Row>& rows, size_t* pos, int max_rows,
               RowBatch* out) {
  out->clear();
  if (*pos >= rows.size() || max_rows <= 0) return false;
  size_t n = rows.size() - *pos;
  if (n > static_cast<size_t>(max_rows)) n = static_cast<size_t>(max_rows);
  out->rows.assign(rows.begin() + static_cast<ptrdiff_t>(*pos),
                   rows.begin() + static_cast<ptrdiff_t>(*pos + n));
  *pos += n;
  return true;
}

// Row-at-a-time view of a batch stream — a child node's or a rowset's —
// for the readers that step one row at a time: nested-loops and merge join
// over their children, and the inline remote streams over their rowsets.
// Rows move out of a reused buffer; an empty buffer is refilled with up to
// `want` rows. A join that may stop before its child's end of data pulls
// single rows where it stops on its own (merge join, semi/anti inner side)
// and at most its caller's demand elsewhere, so the rows it reads ahead —
// and, for a remote child, ships — are bounded by what its caller asked
// for, not by the batch size. A remote stream asks for fixed provider
// blocks instead, so its wire messages depend on neither. Reset() drops
// buffered rows; call it whenever the source is opened or restarted.
template <typename Source>
class RowCursor {
 public:
  explicit RowCursor(Source* source = nullptr) : source_(source) {}

  Result<bool> Next(Row* out, int want) {
    if (pos_ >= batch_.rows.size()) {
      DHQP_ASSIGN_OR_RETURN(bool has, source_->NextBatch(&batch_, want));
      if (!has) return false;
      pos_ = 0;
    }
    *out = std::move(batch_.rows[pos_++]);
    return true;
  }

  void Reset() {
    batch_.clear();
    pos_ = 0;
  }

 private:
  Source* source_;
  RowBatch batch_;
  size_t pos_ = 0;
};

// An operator compiles each expression it evaluates when it is built,
// against its input layout, and binds it to the statement's parameters at
// every Open and Restart — nested loops write their correlation bindings
// just before restarting the inner side. Compiling at build time, on the
// thread that builds the tree, leaves a parallel Concat worker that only
// evaluates a startup filter with no heap allocation to make: a thread's
// first one sets up its allocator cache, which costs more than the filter.
// A null expression compiles to no program.
std::optional<CompiledExpr> Compile(const ScalarExprPtr& expr,
                                    const EvalLayout& layout) {
  if (expr == nullptr) return std::nullopt;
  return CompiledExpr(*expr, layout);
}

std::vector<CompiledExpr> Compile(const std::vector<ScalarExprPtr>& exprs,
                                  const EvalLayout& layout) {
  std::vector<CompiledExpr> programs;
  programs.reserve(exprs.size());
  for (const ScalarExprPtr& e : exprs) programs.emplace_back(*e, layout);
  return programs;
}

void Bind(std::optional<CompiledExpr>* program, const ExecContext& ctx) {
  if (program->has_value()) (*program)->Bind(ctx.params, ctx.current_date);
}

void Bind(std::vector<CompiledExpr>* programs, const ExecContext& ctx) {
  for (CompiledExpr& p : *programs) p.Bind(ctx.params, ctx.current_date);
}

// A RangeSpec's bound expressions: compiled with the operator, evaluated
// against the current parameters at every Open and Restart.
class RangeBounds {
 public:
  explicit RangeBounds(const RangeSpec& spec)
      : spec_(spec), programs_(Compile(Exprs(spec), EvalLayout{})) {}

  Result<IndexRange> Eval(const ExecContext& ctx) {
    Bind(&programs_, ctx);
    IndexRange range;
    size_t i = 0;
    for (; i < spec_.eq_prefix.size(); ++i) {
      DHQP_ASSIGN_OR_RETURN(Value v, programs_[i].EvalRow(EvalInput{}));
      range.eq_prefix.push_back(std::move(v));
    }
    if (spec_.lo != nullptr) {
      DHQP_ASSIGN_OR_RETURN(range.lo, programs_[i++].EvalRow(EvalInput{}));
      range.lo_inclusive = spec_.lo_inclusive;
    }
    if (spec_.hi != nullptr) {
      DHQP_ASSIGN_OR_RETURN(range.hi, programs_[i].EvalRow(EvalInput{}));
      range.hi_inclusive = spec_.hi_inclusive;
    }
    return range;
  }

 private:
  static std::vector<ScalarExprPtr> Exprs(const RangeSpec& spec) {
    std::vector<ScalarExprPtr> exprs = spec.eq_prefix;
    if (spec.lo != nullptr) exprs.push_back(spec.lo);
    if (spec.hi != nullptr) exprs.push_back(spec.hi);
    return exprs;
  }

  const RangeSpec& spec_;
  std::vector<CompiledExpr> programs_;
};

// Memory-charge bookkeeping for one buffering operator: accumulates bytes
// and flushes them in chunks to the operator's profile slot and the query
// tracker (two atomic adds per 64KB, not per row), releasing everything it
// charged on destruction or re-materialization. Bind targets must outlive
// the node — the profile tree and ExecContext both do.
class OperatorMem {
 public:
  ~OperatorMem() { ReleaseAll(); }

  void Bind(OperatorProfile* profile, MemTracker* query) {
    op_ = &profile->mem;
    query_ = query;
  }
  void Add(int64_t bytes) {
    pending_ += bytes;
    if (pending_ >= kFlushBytes) Flush();
  }
  void Flush() {
    if (pending_ == 0) return;
    op_->Add(pending_);
    if (query_ != nullptr) query_->Add(pending_);
    held_ += pending_;
    pending_ = 0;
  }
  void ReleaseAll() {
    pending_ = 0;
    if (held_ == 0) return;
    op_->Release(held_);
    if (query_ != nullptr) query_->Release(held_);
    held_ = 0;
  }
  /// Accumulated bytes not yet flushed to the trackers — grant checks add
  /// this to the query tracker's current() so chunked flushing cannot hide
  /// up to kFlushBytes of growth from the spill trigger.
  int64_t pending() const { return pending_; }

 private:
  static constexpr int64_t kFlushBytes = 64 * 1024;

  MemTracker* op_ = nullptr;
  MemTracker* query_ = nullptr;
  int64_t pending_ = 0;
  int64_t held_ = 0;
};

// ---------------------------------------------------------------------------
// Grant-enforced spilling (workload governor).
// ---------------------------------------------------------------------------

// True when charging `incoming` more bytes would push the query past its
// memory grant — the signal that flips a buffering operator into spill
// mode. Uses the query-wide tracker: whichever operator crosses the grant
// first spills, regardless of which operators are holding the memory.
bool GrantExceeded(const ExecContext* ctx, int64_t op_pending,
                   int64_t incoming) {
  return ctx->grant_bytes > 0 && ctx->memory != nullptr &&
         ctx->memory->current() + op_pending + incoming > ctx->grant_bytes;
}

// Grace partitioning fanout per hash level.
constexpr int kSpillFanout = 8;

// Deepest hash level a Grace pass sheds at. A partition still too big for
// the grant at the cap is processed in memory regardless — correctness
// over enforcement (the classic hash-recursion bailout).
constexpr int kSpillDepthCap = 4;

// Hash of a join/group key for Grace partitioning. Numeric values hash by
// numeric value — int64 1 and double 1.0 compare equal under CompareKeys,
// so they must land in the same partition; strings hash by content; NULLs
// (possible in GROUP BY keys) get a fixed bucket.
size_t HashSpillKey(const IndexKey& key) {
  size_t h = 0x345678;
  for (const Value& v : key) {
    size_t vh;
    if (v.is_null()) {
      vh = 0x9e3779b9;
    } else if (v.type() == DataType::kString) {
      vh = std::hash<std::string>{}(v.string_value());
    } else {
      vh = std::hash<double>{}(v.AsDouble());
    }
    h = h * 1000003 ^ vh;
  }
  return h;
}

// Partition index at a hash level: each level consumes a disjoint bit
// range of the key hash, so recursive repartitions actually subdivide.
int SpillPartOf(const IndexKey& key, int level) {
  return static_cast<int>((HashSpillKey(key) >> (3 * level)) &
                          (kSpillFanout - 1));
}

// A new spill file whose I/O waits charge the owning operator's slot.
Result<std::unique_ptr<spill::SpillFile>> NewSpillFile(
    const ExecContext* ctx, OperatorProfile* profile) {
  return spill::SpillFile::Create(ctx->spill_dir, &profile->wait_tally);
}

// Ends a spill file's writes and rewinds it for reading. A file that holds
// rows counts in the owning operator's slot: spills counts the files
// written (sort runs, Grace partitions, spooled results).
Status FinishSpill(OperatorProfile* profile, spill::SpillFile* file) {
  DHQP_RETURN_NOT_OK(file->FinishWrite());
  if (file->rows() > 0) {
    profile->spills++;
    profile->spill_bytes += file->bytes();
  }
  return file->Rewind();
}

// The fan-out one Grace pass sheds into: kSpillFanout files, each row
// routed by its key's hash bits at the pass's level. Holds no file until
// Open.
class SpillPartitions {
 public:
  SpillPartitions(const ExecContext* ctx, OperatorProfile* profile, int level)
      : ctx_(ctx), profile_(profile), level_(level) {}

  bool is_open() const { return !files_.empty(); }

  Status Open() {
    for (int i = 0; i < kSpillFanout; ++i) {
      DHQP_ASSIGN_OR_RETURN(auto file, NewSpillFile(ctx_, profile_));
      files_.push_back(std::move(file));
    }
    return Status::OK();
  }

  Status Append(const IndexKey& key, const Row& row) {
    return files_[static_cast<size_t>(SpillPartOf(key, level_))]->Append(row);
  }

  /// Finishes every file and hands all of them over in fan-out order, empty
  /// ones included, rewound for the passes to come.
  Result<std::vector<std::unique_ptr<spill::SpillFile>>> Finish() {
    for (auto& file : files_) {
      DHQP_RETURN_NOT_OK(FinishSpill(profile_, file.get()));
    }
    return std::move(files_);
  }

 private:
  const ExecContext* ctx_;
  OperatorProfile* profile_;
  int level_;
  std::vector<std::unique_ptr<spill::SpillFile>> files_;
};

// One input of a Grace pass: the child operator on an operator's first
// pass, a spilled partition on every later one. One branch per batch picks
// the source, so the in-memory path, which reads only the child, pays no
// per-row dispatch.
struct PassInput {
  ExecNode* child;
  spill::SpillFile* file;  ///< Null on the first pass.

  Result<bool> NextBatch(RowBatch* out, int max_rows) {
    if (file == nullptr) return child->NextBatch(out, max_rows);
    out->clear();
    Row row;
    while (static_cast<int>(out->rows.size()) < max_rows) {
      DHQP_ASSIGN_OR_RETURN(bool has, file->Next(&row));
      if (!has) break;
      out->rows.push_back(std::move(row));
    }
    return !out->rows.empty();
  }
};

// ---------------------------------------------------------------------------
// Scans, remote streams and leaves.
// ---------------------------------------------------------------------------

// The rows a local scan or range serves, qualified where they live: the
// WHERE the optimizer folded into the scan, and for a partitioned scan the
// worker's block-cyclic slice. Installed as the storage cursor's row
// filter, so a row that fails or belongs to another worker is never
// copied. Partition p of P owns the live rows whose ordinal, counted as the
// cursor hands rows over, falls in a block of kPartitionBlockRows rows
// whose number mod P is p; a serial scan and a range are partition 0 of 1
// and own every row. Ownership is decided before the predicate runs, so
// every worker serves the rows it owns that pass, and the predicate sees
// each live row once across the workers.
class StorageFilter {
 public:
  StorageFilter(const PhysicalOp& op, int partition, int partitions)
      : predicate_(Compile(op.predicate, EvalLayout{&op.output_cols})),
        partition_(partition),
        partitions_(partitions) {}

  /// Binds the predicate to the context's parameters, restarts the row
  /// ordinals and installs the filter on `rowset`: at every Open and
  /// Restart, since a correlated inner rescans with new parameters. A scan
  /// with nothing to filter installs nothing.
  Status Install(Rowset* rowset, const ExecContext& ctx,
                 OperatorProfile* profile) {
    if (!predicate_.has_value() && partitions_ == 1) return Status::OK();
    Bind(&predicate_, ctx);
    profile_ = profile;
    ordinal_ = 0;
    Status st = rowset->SetFilter(
        [this](const std::vector<Row>& rows, std::vector<int>* sel) {
          return Run(rows, sel);
        });
    if (!st.ok()) {
      return Status::Internal("local rowset declined its row filter: " +
                              st.ToString());
    }
    return Status::OK();
  }

 private:
  /// The partitioned-scan block size is a fixed constant — NOT
  /// exec_batch_rows — so each worker's row set is invariant to the
  /// batch-size knob (the DOP-differential suite crosses the two).
  static constexpr int64_t kPartitionBlockRows = 1024;

  Status Run(const std::vector<Row>& rows, std::vector<int>* sel) {
    if (partitions_ > 1) {
      size_t kept = 0;
      for (int slot : *sel) {
        if ((ordinal_++ / kPartitionBlockRows) % partitions_ == partition_) {
          (*sel)[kept++] = slot;
        }
      }
      sel->resize(kept);
    }
    if (!predicate_.has_value() || sel->empty()) return Status::OK();
    profile_->rows_read.fetch_add(static_cast<int64_t>(sel->size()),
                                  std::memory_order_relaxed);
    DHQP_RETURN_NOT_OK(predicate_->Select(EvalInput{&rows}, sel->data(),
                                          sel->size(), &pass_));
    sel->swap(pass_);
    return Status::OK();
  }

  std::optional<CompiledExpr> predicate_;
  int partition_;
  int partitions_;
  OperatorProfile* profile_ = nullptr;
  int64_t ordinal_ = 0;   ///< Live rows handed over since Open or Restart.
  SelectionVector pass_;  ///< The predicate's passing slots.
};

// A local table scan: forwards the storage cursor's own block fetch, one
// virtual call per batch instead of one per row.
class ScanNode : public ExecNode {
 public:
  /// `partition`/`partitions`: the block-cyclic slice of the table this
  /// instance reads (see StorageFilter). The default 0/1 reads everything.
  ScanNode(PhysicalOpPtr op, ExecContext* ctx, int partition = 0,
           int partitions = 1)
      : ExecNode(std::move(op)),
        ctx_(ctx),
        filter_(*op_, partition, partitions) {}

  Status Open() override {
    DHQP_ASSIGN_OR_RETURN(Session * session,
                          ctx_->catalog->GetSession(op_->table.source_id));
    DHQP_ASSIGN_OR_RETURN(rowset_,
                          session->OpenRowset(op_->table.metadata.name));
    return filter_.Install(rowset_.get(), *ctx_, profile_);
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    return rowset_->NextBatch(out, max_rows);
  }

  Status Restart() override {
    DHQP_RETURN_NOT_OK(rowset_->Restart());
    return filter_.Install(rowset_.get(), *ctx_, profile_);
  }

 private:
  ExecContext* ctx_;
  StorageFilter filter_;
  std::unique_ptr<Rowset> rowset_;
};

// A local index range: bounds evaluated at every Open and Restart, and a
// residual WHERE run in storage like a scan's.
class IndexRangeNode : public ExecNode {
 public:
  IndexRangeNode(PhysicalOpPtr op, ExecContext* ctx)
      : ExecNode(std::move(op)),
        ctx_(ctx),
        bounds_(op_->range),
        filter_(*op_, 0, 1) {}

  Status Open() override {
    DHQP_ASSIGN_OR_RETURN(Session * session,
                          ctx_->catalog->GetSession(op_->table.source_id));
    DHQP_ASSIGN_OR_RETURN(IndexRange range, bounds_.Eval(*ctx_));
    DHQP_ASSIGN_OR_RETURN(
        rowset_, session->OpenIndexRange(op_->table.metadata.name,
                                         op_->index_name, range));
    return filter_.Install(rowset_.get(), *ctx_, profile_);
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    return rowset_->NextBatch(out, max_rows);
  }

  Status Restart() override { return Open(); }  // Bounds may be parameters.

 private:
  ExecContext* ctx_;
  RangeBounds bounds_;
  StorageFilter filter_;
  std::unique_ptr<Rowset> rowset_;
};

// One remote stream, opened by kind: a remote table scan, a remote index
// range, or a remote query ("build remote query" at run time: a command on
// the provider session with its parameters bound from the context).
//
// The node chooses every remote block size: one NextBatch on a linked
// rowset is one wire message. Bulk streams — a scan, or a query with no
// parameters — flow through the prefetch pipeline when the context enables
// it: its producer thread fetches remote_batch_rows-row blocks and pays the
// link's latency while the consumer works on earlier ones, and its queue
// never holds a larger batch. A range or a parameterized query stays
// inline (each rescan returns a handful of rows, so a producer thread per
// rescan would cost more than the latency it hides), as does every stream
// with prefetch off. An inline stream is read through a row cursor in
// fixed kProviderBlockRows-row blocks, so its wire messages — and the
// fault ordinals scripted against them — do not depend on the local batch
// size or on how many rows the parent asks for at a time.
class RemoteNode : public ExecNode {
 public:
  RemoteNode(PhysicalOpPtr op, ExecContext* ctx)
      : ExecNode(std::move(op)),
        ctx_(ctx),
        prefetch_(ctx->options.enable_remote_prefetch &&
                  op_->kind != PhysicalOpKind::kRemoteRange &&
                  op_->remote_param_names.empty()),
        bounds_(op_->range) {}

  Status Open() override {
    DHQP_ASSIGN_OR_RETURN(rowset_, OpenStream());
    profile_->remote_opens++;
    if (prefetch_) {
      const int block_rows = ctx_->options.remote_batch_rows > 0
                                 ? ctx_->options.remote_batch_rows
                                 : kProviderBlockRows;
      rowset_ = std::make_unique<PrefetchingRowset>(
          std::move(rowset_), block_rows, ctx_->options, profile_,
          ctx_->memory);
    }
    cursor_ = RowCursor<Rowset>(rowset_.get());
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    if (prefetch_) return rowset_->NextBatch(out, max_rows);
    return FillBatch(out, max_rows, [this](Row* row) {
      return cursor_.Next(row, kProviderBlockRows);
    });
  }

  // A scan rewinds its stream in place — another round trip's worth of
  // work on the provider, counted as an open — and reopens when the
  // provider cannot rewind. A range re-evaluates its bounds and a query
  // re-binds its parameters, so both reopen.
  Status Restart() override {
    if (op_->kind == PhysicalOpKind::kRemoteScan) {
      profile_->remote_opens++;
      if (rowset_->Restart().ok()) {
        cursor_.Reset();
        return Status::OK();
      }
    }
    return Open();
  }

 private:
  Result<std::unique_ptr<Rowset>> OpenStream() {
    DHQP_ASSIGN_OR_RETURN(Session * session,
                          ctx_->catalog->GetSession(op_->table.source_id));
    if (op_->kind == PhysicalOpKind::kRemoteScan) {
      return session->OpenRowset(op_->table.metadata.name);
    }
    if (op_->kind == PhysicalOpKind::kRemoteRange) {
      DHQP_ASSIGN_OR_RETURN(IndexRange range, bounds_.Eval(*ctx_));
      return session->OpenIndexRange(op_->table.metadata.name,
                                     op_->index_name, range);
    }
    DHQP_ASSIGN_OR_RETURN(auto command, session->CreateCommand());
    DHQP_RETURN_NOT_OK(command->SetText(op_->remote_sql));
    for (const std::string& name : op_->remote_param_names) {
      auto it = ctx_->params.find(name);
      if (it == ctx_->params.end()) {
        return Status::ExecutionError("remote parameter '" + name +
                                      "' not bound");
      }
      DHQP_RETURN_NOT_OK(command->BindParameter(name, it->second));
    }
    return command->Execute();
  }

  ExecContext* ctx_;
  const bool prefetch_;
  RangeBounds bounds_;  ///< A remote range's bounds.
  std::unique_ptr<Rowset> rowset_;
  RowCursor<Rowset> cursor_;  ///< An inline stream's reader.
};

// Remote fetch (§4.1.2 "remote fetch accesses a remote table via
// 'bookmark'"): streams (key, bookmark) pairs from the remote index in
// kProviderBlockRows-row blocks, then fetches each base row by bookmark —
// one round trip per row.
class RemoteFetchNode : public ExecNode {
 public:
  RemoteFetchNode(PhysicalOpPtr op, ExecContext* ctx)
      : ExecNode(std::move(op)), ctx_(ctx), bounds_(op_->range) {}

  Status Open() override {
    DHQP_ASSIGN_OR_RETURN(session_,
                          ctx_->catalog->GetSession(op_->table.source_id));
    DHQP_ASSIGN_OR_RETURN(IndexRange range, bounds_.Eval(*ctx_));
    DHQP_ASSIGN_OR_RETURN(
        keys_, session_->OpenIndexKeys(op_->table.metadata.name,
                                       op_->index_name, range));
    key_cursor_ = RowCursor<Rowset>(keys_.get());
    profile_->remote_opens++;
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    return FillBatch(out, max_rows, [this](Row* row) { return Fetch(row); });
  }

  Status Restart() override { return Open(); }

 private:
  /// Next key, then its base row by bookmark (skipping vanished rows).
  Result<bool> Fetch(Row* out) {
    Row key_row;
    while (true) {
      DHQP_ASSIGN_OR_RETURN(bool has,
                            key_cursor_.Next(&key_row, kProviderBlockRows));
      if (!has) return false;
      const Value& bookmark = key_row.back();
      DHQP_ASSIGN_OR_RETURN(
          std::optional<Row> row,
          session_->FetchByBookmark(op_->table.metadata.name, bookmark));
      profile_->remote_fetches++;
      if (row.has_value()) {
        *out = std::move(*row);
        return true;
      }
    }
  }

  ExecContext* ctx_;
  RangeBounds bounds_;
  Session* session_ = nullptr;
  std::unique_ptr<Rowset> keys_;
  RowCursor<Rowset> key_cursor_;
};

class ConstTableNode : public ExecNode {
 public:
  explicit ConstTableNode(PhysicalOpPtr op) : ExecNode(std::move(op)) {}
  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    return SliceRows(op_->const_rows, &pos_, max_rows, out);
  }
  Status Restart() override {
    pos_ = 0;
    return Status::OK();
  }

 private:
  size_t pos_ = 0;
};

class EmptyNode : public ExecNode {
 public:
  explicit EmptyNode(PhysicalOpPtr op) : ExecNode(std::move(op)) {}
  Status Open() override { return Status::OK(); }
  Result<bool> NextBatch(RowBatch* out, int) override {
    out->clear();
    return false;
  }
  Status Restart() override { return Status::OK(); }
};

class FullTextLookupNode : public ExecNode {
 public:
  FullTextLookupNode(PhysicalOpPtr op, ExecContext* ctx)
      : ExecNode(std::move(op)), ctx_(ctx) {}

  Status Open() override {
    if (ctx_->fulltext == nullptr) {
      return Status::ExecutionError("no full-text service available");
    }
    DHQP_ASSIGN_OR_RETURN(matches_,
                          ctx_->fulltext->Query(op_->ft_table, op_->ft_query));
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    out->clear();
    while (pos_ < matches_.size() &&
           static_cast<int>(out->rows.size()) < max_rows) {
      const auto& [key, rank] = matches_[pos_++];
      out->rows.push_back(Row{key, Value::Double(rank)});
    }
    return !out->rows.empty();
  }

  Status Restart() override {
    pos_ = 0;
    return Status::OK();
  }

 private:
  ExecContext* ctx_;
  std::vector<std::pair<Value, double>> matches_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Filters / projection / top.
// ---------------------------------------------------------------------------

class FilterNode : public ExecNode {
 public:
  FilterNode(PhysicalOpPtr op, std::unique_ptr<ExecNode> child,
             ExecContext* ctx)
      : ExecNode(std::move(op)),
        child_(std::move(child)),
        ctx_(ctx),
        predicate_(*op_->predicate, EvalLayout{&child_->op().output_cols}) {}

  Status Open() override {
    DHQP_RETURN_NOT_OK(child_->Open());
    predicate_.Bind(ctx_->params, ctx_->current_date);
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    out->clear();
    if (max_rows <= 0) return false;
    // Qualify whole child batches through the selection vector; loop until
    // at least one row survives — an empty batch may only mean end of data.
    while (out->rows.empty()) {
      DHQP_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in_batch_, max_rows));
      if (!has) return false;
      DHQP_RETURN_NOT_OK(predicate_.Select(EvalInput{&in_batch_.rows},
                                           nullptr, in_batch_.rows.size(),
                                           &sel_));
      out->rows.reserve(sel_.size());
      for (int idx : sel_) {
        out->rows.push_back(std::move(in_batch_.rows[static_cast<size_t>(idx)]));
      }
    }
    return true;
  }

  Status Restart() override {
    DHQP_RETURN_NOT_OK(child_->Restart());
    predicate_.Bind(ctx_->params, ctx_->current_date);
    return Status::OK();
  }

 private:
  std::unique_ptr<ExecNode> child_;
  ExecContext* ctx_;
  CompiledExpr predicate_;
  RowBatch in_batch_;    ///< Reused (clear-and-refill) across batch pulls.
  SelectionVector sel_;  ///< Reused qualification buffer.
};

// Startup filter (§4.1.5): evaluates its parameter-only predicate before
// opening the child; a false guard skips the entire subtree (runtime
// partition pruning).
class StartupFilterNode : public ExecNode {
 public:
  StartupFilterNode(PhysicalOpPtr op, std::unique_ptr<ExecNode> child,
                    ExecContext* ctx)
      : ExecNode(std::move(op)),
        child_(std::move(child)),
        ctx_(ctx),
        predicate_(*op_->predicate, EvalLayout{}) {}

  Status Open() override {
    predicate_.Bind(ctx_->params, ctx_->current_date);
    DHQP_ASSIGN_OR_RETURN(active_, predicate_.Test(EvalInput{}));
    if (!active_) {
      profile_->startup_skips++;
      return Status::OK();
    }
    if (!child_opened_) {
      child_opened_ = true;
      return child_->Open();
    }
    return child_->Restart();
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    if (!active_) {
      out->clear();
      return false;
    }
    return child_->NextBatch(out, max_rows);
  }

  Status Restart() override { return Open(); }

 private:
  std::unique_ptr<ExecNode> child_;
  ExecContext* ctx_;
  CompiledExpr predicate_;
  bool active_ = false;
  bool child_opened_ = false;
};

class ProjectNode : public ExecNode {
 public:
  ProjectNode(PhysicalOpPtr op, std::unique_ptr<ExecNode> child,
              ExecContext* ctx)
      : ExecNode(std::move(op)),
        child_(std::move(child)),
        ctx_(ctx),
        exprs_(Compile(op_->exprs, EvalLayout{&child_->op().output_cols})) {}

  Status Open() override {
    DHQP_RETURN_NOT_OK(child_->Open());
    Bind(&exprs_, *ctx_);
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    out->clear();
    if (max_rows <= 0) return false;
    DHQP_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in_batch_, max_rows));
    if (!has) return false;
    // Evaluate column-major — one expression over the whole batch — then
    // assemble output rows.
    const size_t n = in_batch_.rows.size();
    size_t live = n;
    DHQP_RETURN_NOT_OK(EvalEach(&exprs_, EvalInput{&in_batch_.rows}, &live));
    out->rows.resize(n);
    for (size_t r = 0; r < n; ++r) {
      Row& row = out->rows[r];
      row.clear();
      row.reserve(exprs_.size());
      for (CompiledExpr& e : exprs_) row.push_back(e.Take(r));
    }
    return true;
  }

  Status Restart() override {
    DHQP_RETURN_NOT_OK(child_->Restart());
    Bind(&exprs_, *ctx_);
    return Status::OK();
  }

 private:
  std::unique_ptr<ExecNode> child_;
  ExecContext* ctx_;
  std::vector<CompiledExpr> exprs_;
  RowBatch in_batch_;  ///< Reused across batch pulls.
};

class TopNode : public ExecNode {
 public:
  TopNode(PhysicalOpPtr op, std::unique_ptr<ExecNode> child)
      : ExecNode(std::move(op)), child_(std::move(child)) {}

  Status Open() override {
    emitted_ = 0;
    return child_->Open();
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    out->clear();
    const int64_t left = op_->limit - emitted_;
    if (left <= 0 || max_rows <= 0) return false;
    const int ask = static_cast<int>(
        std::min<int64_t>(left, static_cast<int64_t>(max_rows)));
    DHQP_ASSIGN_OR_RETURN(bool has, child_->NextBatch(out, ask));
    if (!has) return false;
    // Defensive: a child handing out buffered batches wholesale could
    // over-deliver; never emit past the limit.
    if (static_cast<int64_t>(out->rows.size()) > left) {
      out->rows.resize(static_cast<size_t>(left));
    }
    emitted_ += static_cast<int64_t>(out->rows.size());
    return true;
  }

  Status Restart() override {
    emitted_ = 0;
    return child_->Restart();
  }

 private:
  std::unique_ptr<ExecNode> child_;
  int64_t emitted_ = 0;
};

// ---------------------------------------------------------------------------
// Sort / spool / concat.
// ---------------------------------------------------------------------------

class SortNode : public ExecNode {
 public:
  SortNode(PhysicalOpPtr op, std::unique_ptr<ExecNode> child, ExecContext* ctx)
      : ExecNode(std::move(op)), child_(std::move(child)), ctx_(ctx) {}

  Status Open() override {
    DHQP_RETURN_NOT_OK(child_->Open());
    return Materialize();
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    if (spilled_) {
      return FillBatch(out, max_rows,
                       [this](Row* row) { return MergeNext(row); });
    }
    return SliceRows(rows_, &pos_, max_rows, out);
  }

  Status Restart() override {
    DHQP_RETURN_NOT_OK(child_->Restart());
    return Materialize();
  }

 private:
  Status ResolveKeys() {
    keys_.clear();
    for (const auto& [col, asc] : op_->sort_keys) {
      const int pos = ColumnPosition(child_->op().output_cols, col);
      if (pos < 0) return Status::Internal("sort key column not in input");
      keys_.emplace_back(pos, asc);
    }
    return Status::OK();
  }

  bool RowLess(const Row& a, const Row& b) const {
    for (const auto& [pos, asc] : keys_) {
      int c = a[static_cast<size_t>(pos)].Compare(b[static_cast<size_t>(pos)]);
      if (c != 0) return asc ? c < 0 : c > 0;
    }
    return false;
  }

  void SortRows() {
    std::stable_sort(
        rows_.begin(), rows_.end(),
        [this](const Row& a, const Row& b) { return RowLess(a, b); });
  }

  /// Sorts the buffered rows and writes them out as one external run,
  /// releasing their memory.
  Status SpillRun() {
    SortRows();
    DHQP_ASSIGN_OR_RETURN(auto run, NewSpillFile(ctx_, profile_));
    for (const Row& r : rows_) DHQP_RETURN_NOT_OK(run->Append(r));
    DHQP_RETURN_NOT_OK(FinishSpill(profile_, run.get()));
    runs_.push_back(std::move(run));
    rows_.clear();
    mem_.ReleaseAll();
    return Status::OK();
  }

  Status Materialize() {
    rows_.clear();
    pos_ = 0;
    runs_.clear();
    heap_.clear();
    spilled_ = false;
    mem_.ReleaseAll();
    mem_.Bind(profile_, ctx_->memory);
    DHQP_RETURN_NOT_OK(ResolveKeys());
    RowBatch batch;
    while (true) {
      DHQP_ASSIGN_OR_RETURN(
          bool has, child_->NextBatch(&batch, ctx_->options.batch_rows()));
      if (!has) break;
      for (Row& r : batch.rows) {
        const int64_t rb = RowMemBytes(r);
        if (!rows_.empty() && GrantExceeded(ctx_, mem_.pending(), rb)) {
          DHQP_RETURN_NOT_OK(SpillRun());
        }
        mem_.Add(rb);
        rows_.push_back(std::move(r));
      }
    }
    mem_.Flush();
    if (runs_.empty()) {
      SortRows();
      return Status::OK();
    }
    // External path: the tail becomes the final run, then a k-way merge
    // streams the runs back in order.
    if (!rows_.empty()) DHQP_RETURN_NOT_OK(SpillRun());
    spilled_ = true;
    return OpenMerge();
  }

  struct MergeEntry {
    Row row;
    size_t run;
  };

  /// Heap order: true when `a` must come after `b`. Equal keys break by run
  /// index — runs were written in arrival order and stable_sort'ed, so this
  /// reproduces the in-memory stable sort exactly.
  bool MergeAfter(const MergeEntry& a, const MergeEntry& b) const {
    if (RowLess(b.row, a.row)) return true;
    if (RowLess(a.row, b.row)) return false;
    return a.run > b.run;
  }

  Status OpenMerge() {
    heap_.clear();
    Row row;
    for (size_t i = 0; i < runs_.size(); ++i) {
      DHQP_ASSIGN_OR_RETURN(bool has, runs_[i]->Next(&row));
      if (has) heap_.push_back(MergeEntry{std::move(row), i});
    }
    auto after = [this](const MergeEntry& a, const MergeEntry& b) {
      return MergeAfter(a, b);
    };
    std::make_heap(heap_.begin(), heap_.end(), after);
    return Status::OK();
  }

  Result<bool> MergeNext(Row* out) {
    if (heap_.empty()) return false;
    auto after = [this](const MergeEntry& a, const MergeEntry& b) {
      return MergeAfter(a, b);
    };
    std::pop_heap(heap_.begin(), heap_.end(), after);
    MergeEntry e = std::move(heap_.back());
    heap_.pop_back();
    *out = std::move(e.row);
    DHQP_ASSIGN_OR_RETURN(bool has, runs_[e.run]->Next(&e.row));
    if (has) {
      heap_.push_back(std::move(e));
      std::push_heap(heap_.begin(), heap_.end(), after);
    }
    return true;
  }

  std::unique_ptr<ExecNode> child_;
  ExecContext* ctx_;
  std::vector<Row> rows_;
  std::vector<std::pair<int, bool>> keys_;  ///< (position, ascending).
  OperatorMem mem_;
  size_t pos_ = 0;
  // External-merge state (grant-enforced spill).
  bool spilled_ = false;
  std::vector<std::unique_ptr<spill::SpillFile>> runs_;
  std::vector<MergeEntry> heap_;
};

// Spool (§4.1.4): materializes the child once; rescans are served from the
// copy "without having to request the data from the remote sources again".
class SpoolNode : public ExecNode {
 public:
  SpoolNode(PhysicalOpPtr op, std::unique_ptr<ExecNode> child,
            ExecContext* ctx)
      : ExecNode(std::move(op)), child_(std::move(child)), ctx_(ctx) {}

  Status Open() override {
    DHQP_RETURN_NOT_OK(child_->Open());
    rows_.clear();
    mem_.ReleaseAll();
    file_.reset();
    filled_ = false;
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    DHQP_RETURN_NOT_OK(Fill());
    if (file_ != nullptr) {
      return FillBatch(out, max_rows,
                       [this](Row* row) { return file_->Next(row); });
    }
    return SliceRows(rows_, &pos_, max_rows, out);
  }

  Status Restart() override {
    if (filled_) {
      profile_->spool_rescans++;
      pos_ = 0;
      if (file_ != nullptr) return file_->Rewind();
      return Status::OK();
    }
    return Open();
  }

 private:
  /// Moves the buffered rows to a spill file; later rows append directly.
  /// Spool rescans reread the file (Rewind) instead of re-executing.
  Status StartSpill() {
    DHQP_ASSIGN_OR_RETURN(file_, NewSpillFile(ctx_, profile_));
    for (const Row& r : rows_) DHQP_RETURN_NOT_OK(file_->Append(r));
    rows_.clear();
    mem_.ReleaseAll();
    return Status::OK();
  }

  Status Fill() {
    if (filled_) return Status::OK();
    mem_.Bind(profile_, ctx_->memory);
    auto take = [&](Row& r) -> Status {
      if (file_ != nullptr) return file_->Append(r);
      const int64_t rb = RowMemBytes(r);
      if (!rows_.empty() && GrantExceeded(ctx_, mem_.pending(), rb)) {
        DHQP_RETURN_NOT_OK(StartSpill());
        return file_->Append(r);
      }
      mem_.Add(rb);
      rows_.push_back(std::move(r));
      return Status::OK();
    };
    RowBatch batch;
    while (true) {
      DHQP_ASSIGN_OR_RETURN(
          bool has, child_->NextBatch(&batch, ctx_->options.batch_rows()));
      if (!has) break;
      for (Row& r : batch.rows) DHQP_RETURN_NOT_OK(take(r));
    }
    mem_.Flush();
    if (file_ != nullptr) {
      DHQP_RETURN_NOT_OK(FinishSpill(profile_, file_.get()));
    }
    filled_ = true;
    return Status::OK();
  }

  std::unique_ptr<ExecNode> child_;
  ExecContext* ctx_;
  std::vector<Row> rows_;
  OperatorMem mem_;
  std::unique_ptr<spill::SpillFile> file_;  ///< Set once the grant overflows.
  bool filled_ = false;
  size_t pos_ = 0;
};

// What a Concat branch touches, for deciding whether branches may be
// drained concurrently (partitioned views over multiple linked servers,
// §4.2 / Fig 4): branches must not write shared context (correlation
// parameters) and must not share a provider session with another branch.
struct BranchProfile {
  bool safe = true;        ///< No ctx->params writes, no full-text service.
  bool has_remote = false;
  std::set<int> sources;   ///< Source ids (kLocalSource for local tables).
};

void ProfileSubtree(const PhysicalOp& op, BranchProfile* profile) {
  if (!op.remote_params.empty()) profile->safe = false;
  switch (op.kind) {
    case PhysicalOpKind::kRemoteQuery:
    case PhysicalOpKind::kRemoteScan:
    case PhysicalOpKind::kRemoteRange:
    case PhysicalOpKind::kRemoteFetch:
      profile->has_remote = true;
      profile->sources.insert(op.table.source_id);
      break;
    case PhysicalOpKind::kTableScan:
    case PhysicalOpKind::kIndexRange:
      profile->sources.insert(kLocalSource);
      break;
    case PhysicalOpKind::kFullTextLookup:
      profile->safe = false;  // Service is not vetted for concurrent use.
      break;
    default:
      break;
  }
  for (const PhysicalOpPtr& child : op.children) {
    ProfileSubtree(*child, profile);
  }
}

// UNION ALL / partitioned-view concatenation. Remote branches over distinct
// linked servers are opened and drained concurrently up to
// ExecOptions::concat_dop (the paper's multi-member fan-out, §4.1.5), so
// member links pay their latency in parallel; otherwise branches run
// strictly sequentially as before.
class ConcatNode : public ExecNode {
 public:
  ConcatNode(PhysicalOpPtr op, std::vector<std::unique_ptr<ExecNode>> children,
             ExecContext* ctx)
      : ExecNode(std::move(op)), children_(std::move(children)), ctx_(ctx) {}

  ~ConcatNode() override { StopWorkers(); }

  Status Open() override {
    StopWorkers();
    current_ = 0;
    opened_current_ = false;
    launched_ = false;
    parallel_ = DecideParallel();
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    if (parallel_) return ParallelNextBatch(out, max_rows);
    out->clear();
    if (max_rows <= 0) return false;
    while (current_ < children_.size()) {
      if (!opened_current_) {
        Status st = children_[current_]->Open();
        if (!st.ok()) {
          if (MaybeSkipMember(*children_[current_], st, /*rows_emitted=*/0)) {
            ++current_;
            continue;
          }
          return st;
        }
        opened_current_ = true;
        current_rows_ = 0;
      }
      Result<bool> has = children_[current_]->NextBatch(out, max_rows);
      if (!has.ok()) {
        // A failing NextBatch surfaces no rows (mid-batch errors are
        // deferred behind their rows), so the member-skip accounting sees
        // exactly the rows already handed out.
        if (MaybeSkipMember(*children_[current_], has.status(),
                            current_rows_)) {
          ++current_;
          opened_current_ = false;
          out->clear();
          continue;
        }
        return has.status();
      }
      if (*has) {
        current_rows_ += static_cast<int64_t>(out->rows.size());
        return true;
      }
      ++current_;
      opened_current_ = false;
    }
    return false;
  }

  Status Restart() override { return Open(); }

 private:
  bool DecideParallel() const {
    int dop = ctx_->options.concat_dop;
    if (dop <= 1 || children_.size() < 2) return false;
    size_t total_sources = 0;
    std::set<int> all_sources;
    int remote_branches = 0;
    for (const auto& child : children_) {
      BranchProfile profile;
      ProfileSubtree(child->op(), &profile);
      if (!profile.safe) return false;
      if (profile.has_remote) ++remote_branches;
      total_sources += profile.sources.size();
      all_sources.insert(profile.sources.begin(), profile.sources.end());
    }
    // Two branches hitting the same source would share one provider
    // session across threads; keep those sequential.
    if (all_sources.size() != total_sources) return false;
    return remote_branches >= 2;
  }

  void LaunchWorkers() {
    launched_ = true;
    next_branch_.store(0);
    // Batches parked here are this operator's memory, like an exchange's.
    queue_.emplace(ctx_->options, profile_, ctx_->memory,
                   waits::WaitType::kConcatQueue,
                   waits::WaitType::kConcatQueue);
    size_t dop = std::min<size_t>(
        static_cast<size_t>(ctx_->options.concat_dop), children_.size());
    active_workers_.store(static_cast<int>(dop));
    for (size_t i = 0; i < dop; ++i) {
      workers_.Launch("concat.worker" + std::to_string(i),
                      [this] { WorkerLoop(); });
    }
  }

  void WorkerLoop() {
    size_t i;
    bool aborted = false;
    while (!aborted &&
           (i = next_branch_.fetch_add(1)) < children_.size()) {
      ExecNode* child = children_[i].get();
      profile_->worker_branches++;
      Status st = child->Open();
      if (!st.ok()) {
        if (MaybeSkipMember(*child, st, /*rows_emitted=*/0)) continue;
        queue_->Fail(st);  // Wakes the consumer and the other workers.
        break;
      }
      // Every batch the branch yields is published whole. A failing pull
      // surfaces no rows (FillBatch defers mid-batch errors), so the
      // member-skip rule sees exactly the rows already published — the
      // same rule the sequential path applies.
      int64_t rows_published = 0;
      while (true) {
        RowBatch batch = queue_->TakeBuffer();
        Result<bool> has =
            child->NextBatch(&batch, ctx_->options.batch_rows());
        if (!has.ok()) {
          if (MaybeSkipMember(*child, has.status(), rows_published)) break;
          queue_->Fail(has.status());
          aborted = true;
          break;
        }
        if (!*has) break;
        rows_published += static_cast<int64_t>(batch.rows.size());
        if (!queue_->Push(std::move(batch))) {
          aborted = true;
          break;
        }
      }
    }
    if (active_workers_.fetch_sub(1) == 1) queue_->Close();
  }

  /// Graceful degradation (ExecOptions::skip_unreachable_members): returns
  /// true when a member's network failure should drop the member instead of
  /// failing the query — only if the member has not surfaced any row yet.
  bool MaybeSkipMember(const ExecNode& child, const Status& st,
                       int64_t rows_emitted) {
    if (!ctx_->options.skip_unreachable_members) return false;
    if (st.code() != StatusCode::kNetworkError) return false;
    if (rows_emitted > 0) return false;
    profile_->members_skipped++;
    BranchProfile profile;
    ProfileSubtree(child.op(), &profile);
    std::string member = "local";
    for (int source : profile.sources) {
      if (source != kLocalSource && ctx_->catalog != nullptr) {
        member = "server '" + ctx_->catalog->ServerName(source) + "'";
        break;
      }
    }
    std::lock_guard<std::mutex> lock(ctx_->warnings_mu);
    ctx_->warnings.push_back("partitioned view: skipped unreachable member on " +
                             member + ": " + st.message());
    return true;
  }

  Result<bool> ParallelNextBatch(RowBatch* out, int max_rows) {
    if (!launched_) LaunchWorkers();
    return queue_->NextBatch(out, max_rows);
  }

  /// Closes the queue, joins the workers and drops what they left parked.
  void StopWorkers() {
    if (!queue_.has_value()) return;
    queue_->Close();
    workers_.JoinAll();
    queue_.reset();
  }

  std::vector<std::unique_ptr<ExecNode>> children_;
  ExecContext* ctx_;

  // Sequential mode.
  size_t current_ = 0;
  bool opened_current_ = false;
  int64_t current_rows_ = 0;  ///< Rows the current branch has emitted.

  // Parallel mode.
  bool parallel_ = false;
  bool launched_ = false;
  std::optional<BatchQueue> queue_;
  std::atomic<size_t> next_branch_{0};
  std::atomic<int> active_workers_{0};
  QueryWorkers workers_;
};

// ---------------------------------------------------------------------------
// Joins.
// ---------------------------------------------------------------------------

// One side of an equi-join key, compiled: each key pair's left expression
// (`left`) or right one, over that input. A key value that is NULL ends
// its key, which then equals nothing: each expression runs only at the
// rows whose earlier key values are all non-NULL, as the row loop stopped
// at the first NULL.
class JoinKeys {
 public:
  JoinKeys(const PhysicalOp& op, bool left, const ExecNode& input)
      : programs_(
            Compile(Exprs(op, left), EvalLayout{&input.op().output_cols})) {}

  void Bind(const ExecContext& ctx) { dhqp::Bind(&programs_, ctx); }

  /// Evaluates the keys of `in`'s first `n` rows (n = 1 over a fixed row).
  /// Returns the first failing row's error, with `*done` set to that row;
  /// the keys of the rows before it stay readable.
  Status Eval(const EvalInput& in, size_t n, size_t* done) {
    const size_t width = programs_.size();
    values_.resize(n * width);
    lengths_.assign(n, 0);
    rows_.resize(n);
    std::iota(rows_.begin(), rows_.end(), 0);
    Status first;
    for (size_t k = 0; k < width; ++k) {
      size_t evaluated = rows_.size();
      Status st = programs_[k].Eval(in, rows_.data(), rows_.size(), &evaluated);
      if (!st.ok()) {
        n = static_cast<size_t>(rows_[evaluated]);
        first = std::move(st);
      }
      next_.clear();
      for (size_t j = 0; j < evaluated; ++j) {
        const Value& v = programs_[k].value(j);
        if (v.is_null()) continue;
        const int row = rows_[j];
        values_[static_cast<size_t>(row) * width + k] = &v;
        lengths_[static_cast<size_t>(row)] = k + 1;
        next_.push_back(row);
      }
      rows_.swap(next_);
    }
    *done = n;
    return first;
  }

  /// Row `i`'s key, built at its exact size: its values up to the first
  /// NULL. True when it has no NULL.
  bool Key(size_t i, IndexKey* key) const {
    const size_t width = programs_.size();
    key->clear();
    key->reserve(lengths_[i]);
    for (size_t k = 0; k < lengths_[i]; ++k) {
      key->push_back(*values_[i * width + k]);
    }
    return lengths_[i] == width;
  }

 private:
  static std::vector<ScalarExprPtr> Exprs(const PhysicalOp& op, bool left) {
    std::vector<ScalarExprPtr> exprs;
    for (const auto& [l, r] : op.key_pairs) exprs.push_back(left ? l : r);
    return exprs;
  }

  std::vector<CompiledExpr> programs_;
  std::vector<const Value*> values_;  ///< Row-major, width per row.
  std::vector<size_t> lengths_;       ///< Non-NULL key prefix per row.
  SelectionVector rows_, next_;       ///< Rows still building a key.
};

// The rows among `matches` that pass a join residual with `probe` on the
// left, as the row loop would find them: `pass` holds the passing matches
// before the first failing one, whose error is returned.
Status ResidualMatches(std::optional<CompiledExpr>* residual, const Row& probe,
                       const std::vector<Row>& matches, SelectionVector* pass) {
  EvalInput in;
  in.row = &probe;
  in.rows2 = &matches;
  return (*residual)->Select(in, nullptr, matches.size(), pass);
}

class HashJoinNode : public ExecNode {
 public:
  HashJoinNode(PhysicalOpPtr op, std::unique_ptr<ExecNode> left,
               std::unique_ptr<ExecNode> right, ExecContext* ctx)
      : ExecNode(std::move(op)),
        left_(std::move(left)),
        right_(std::move(right)),
        ctx_(ctx),
        build_keys_(*op_, /*left=*/false, *right_),
        probe_keys_(*op_, /*left=*/true, *left_),
        residual_(Compile(op_->predicate,
                          EvalLayout{&left_->op().output_cols,
                                     &right_->op().output_cols})) {}

  Status Open() override {
    DHQP_RETURN_NOT_OK(left_->Open());
    DHQP_RETURN_NOT_OK(right_->Open());
    return Start();
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    // Step advances the probe side row by row, pulling at most this call's
    // demand from left_.
    return FillBatch(out, max_rows,
                     [&](Row* row) { return Step(max_rows, row); });
  }

  Status Restart() override {
    DHQP_RETURN_NOT_OK(left_->Restart());
    DHQP_RETURN_NOT_OK(right_->Restart());
    return Start();
  }

 private:
  Result<bool> Step(int want, Row* out) {
    while (true) {
      if (have_probe_) {
        if (op_->join_type == JoinType::kSemi ||
            op_->join_type == JoinType::kAnti) {
          // The row loop stops at the first passing match, so an error
          // after it never surfaces.
          const bool any =
              residual_.has_value() ? !pass_.empty() : !matches_->empty();
          if (!any && !residual_status_.ok()) return residual_status_;
          have_probe_ = false;
          if (any == (op_->join_type == JoinType::kSemi)) {
            *out = probe_;
            return true;
          }
          continue;
        }
        // Inner / left outer: emit every passing combination, then the
        // residual's error, if any.
        const size_t passing =
            residual_.has_value() ? pass_.size() : matches_->size();
        if (match_pos_ < passing) {
          const size_t i = residual_.has_value()
                               ? static_cast<size_t>(pass_[match_pos_])
                               : match_pos_;
          ++match_pos_;
          const Row& build_row = (*matches_)[i];
          any_emitted_ = true;
          *out = probe_;
          out->insert(out->end(), build_row.begin(), build_row.end());
          return true;
        }
        if (!residual_status_.ok()) return residual_status_;
        have_probe_ = false;
        if (op_->join_type == JoinType::kLeftOuter && !any_emitted_) {
          *out = probe_;
          for (size_t i = 0; i < right_->op().output_cols.size(); ++i) {
            out->push_back(Value::Null(right_->op().output_types[i]));
          }
          return true;
        }
        continue;
      }
      DHQP_ASSIGN_OR_RETURN(bool has, NextProbe(want));
      if (!has) return false;
      have_probe_ = true;
      any_emitted_ = false;
      match_pos_ = 0;
      static const std::vector<Row>& kNoMatches = *new std::vector<Row>();
      auto it = probe_complete_ ? table_.find(probe_key_) : table_.end();
      matches_ = it == table_.end() ? &kNoMatches : &it->second;
      residual_status_ = Status::OK();
      pass_.clear();
      if (residual_.has_value() && !matches_->empty()) {
        residual_status_ =
            ResidualMatches(&residual_, probe_, *matches_, &pass_);
      }
    }
  }

  // -- Grace passes (grant-enforced spill) ---------------------------------
  //
  // The join runs as a series of passes, each over one build side and one
  // probe side: the children on the first pass, a spilled partition pair on
  // every later one. A pass loads its build rows into table_, then streams
  // its probe rows through Step. When the table would outgrow the grant at
  // a hash level <= kSpillDepthCap, the pass sheds instead: the table, the
  // rest of its build rows and then all of its probe rows go to
  // kSpillFanout partition pairs keyed at that level, and each pair that
  // can produce rows queues for a pass at the next level. Past the cap a
  // pass loads regardless: correctness over enforcement.

  struct Pass {
    std::unique_ptr<spill::SpillFile> build;  ///< Null on the first pass.
    std::unique_ptr<spill::SpillFile> probe;  ///< Null on the first pass.
    int level = 0;                            ///< The level it sheds at.
  };

  Status Start() {
    build_keys_.Bind(*ctx_);
    probe_keys_.Bind(*ctx_);
    Bind(&residual_, *ctx_);
    have_probe_ = false;
    probe_batch_.clear();
    probe_pos_ = 0;
    probe_file_.reset();
    queue_.clear();
    mem_.Bind(profile_, ctx_->memory);
    return RunPass(Pass{});
  }

  /// Loads `pass`'s build side into table_ and leaves its probe side to
  /// stream, or sheds both sides into partition pairs.
  Status RunPass(Pass pass) {
    table_.clear();
    mem_.ReleaseAll();
    SpillPartitions build_parts(ctx_, profile_, pass.level);
    PassInput build{right_.get(), pass.build.get()};
    RowBatch batch;
    while (true) {
      DHQP_ASSIGN_OR_RETURN(
          bool has, build.NextBatch(&batch, ctx_->options.batch_rows()));
      if (!has) break;
      size_t done = 0;
      DHQP_RETURN_NOT_OK(build_keys_.Eval(EvalInput{&batch.rows},
                                          batch.rows.size(), &done));
      for (size_t r = 0; r < batch.rows.size(); ++r) {
        Row& row = batch.rows[r];
        IndexKey key;
        if (!build_keys_.Key(r, &key)) continue;  // Build NULLs never match.
        if (!build_parts.is_open()) {
          const int64_t add =
              HashJoinEntryBytes(RowMemBytes(row), RowMemBytes(key));
          if (table_.empty() || pass.level > kSpillDepthCap ||
              !GrantExceeded(ctx_, mem_.pending(), add)) {
            mem_.Add(add);
            table_[std::move(key)].push_back(std::move(row));
            continue;
          }
          DHQP_RETURN_NOT_OK(build_parts.Open());
          for (const auto& [k, rows] : table_) {
            for (const Row& r : rows) {
              DHQP_RETURN_NOT_OK(build_parts.Append(k, r));
            }
          }
          table_.clear();
          mem_.ReleaseAll();
        }
        DHQP_RETURN_NOT_OK(build_parts.Append(key, row));
      }
    }
    mem_.Flush();
    probing_ = !build_parts.is_open();
    if (probing_) {
      probe_file_ = std::move(pass.probe);
      return Status::OK();
    }
    SpillPartitions probe_parts(ctx_, profile_, pass.level);
    DHQP_RETURN_NOT_OK(probe_parts.Open());
    PassInput probe{left_.get(), pass.probe.get()};
    while (true) {
      DHQP_ASSIGN_OR_RETURN(
          bool has, probe.NextBatch(&batch, ctx_->options.batch_rows()));
      if (!has) break;
      size_t done = 0;
      DHQP_RETURN_NOT_OK(probe_keys_.Eval(EvalInput{&batch.rows},
                                          batch.rows.size(), &done));
      for (size_t r = 0; r < batch.rows.size(); ++r) {
        // A probe row whose key has a NULL matches nothing, but anti and
        // left outer joins still emit it: it routes by the key's non-NULL
        // prefix, the same at every level.
        probe_keys_.Key(r, &probe_key_);
        DHQP_RETURN_NOT_OK(probe_parts.Append(probe_key_, batch.rows[r]));
      }
    }
    DHQP_ASSIGN_OR_RETURN(auto builds, build_parts.Finish());
    DHQP_ASSIGN_OR_RETURN(auto probes, probe_parts.Finish());
    for (size_t i = 0; i < probes.size(); ++i) {
      // Probe rows drive every supported join type (inner, semi, anti and
      // left outer emit at most per probe row), so a pair whose probe
      // partition is empty produces nothing; its files delete themselves.
      if (probes[i]->rows() > 0) {
        queue_.push_back(Pass{std::move(builds[i]), std::move(probes[i]),
                              pass.level + 1});
      }
    }
    return Status::OK();
  }

  /// Reads the next probe row into probe_, with its key: from left_ on the
  /// first pass, from the pass's probe partition on later ones, a batch at
  /// a time. A pass that runs out of probe rows, or shed them, hands over
  /// to the next queued pair. A row whose key failed returns the error.
  Result<bool> NextProbe(int want) {
    while (true) {
      if (probing_) {
        if (probe_pos_ >= probe_batch_.rows.size()) {
          PassInput input{left_.get(), probe_file_.get()};
          DHQP_ASSIGN_OR_RETURN(bool has, input.NextBatch(&probe_batch_, want));
          probe_pos_ = 0;
          if (has) {
            probe_status_ = probe_keys_.Eval(EvalInput{&probe_batch_.rows},
                                             probe_batch_.rows.size(),
                                             &probe_done_);
          } else {
            probing_ = false;
            probe_file_.reset();
          }
        }
        if (probing_) {
          if (probe_pos_ == probe_done_) return probe_status_;
          probe_complete_ = probe_keys_.Key(probe_pos_, &probe_key_);
          probe_ = std::move(probe_batch_.rows[probe_pos_++]);
          return true;
        }
      }
      if (queue_.empty()) return false;
      Pass next = std::move(queue_.front());
      queue_.pop_front();
      DHQP_RETURN_NOT_OK(RunPass(std::move(next)));
    }
  }

  struct KeyLess {
    bool operator()(const IndexKey& a, const IndexKey& b) const {
      return CompareKeys(a, b) < 0;
    }
  };

  std::unique_ptr<ExecNode> left_, right_;
  ExecContext* ctx_;
  JoinKeys build_keys_, probe_keys_;
  std::optional<CompiledExpr> residual_;
  std::map<IndexKey, std::vector<Row>, KeyLess> table_;
  OperatorMem mem_;
  // The probe side: the current batch, its keys, and the row being joined.
  RowBatch probe_batch_;
  size_t probe_pos_ = 0;
  size_t probe_done_ = 0;  ///< Rows of the batch whose keys evaluated.
  Status probe_status_;    ///< The error of the row at probe_done_.
  Row probe_;
  IndexKey probe_key_;  ///< Key of the latest probe row (its NULL-free prefix).
  bool probe_complete_ = false;  ///< probe_key_ has no NULL.
  const std::vector<Row>* matches_ = nullptr;
  SelectionVector pass_;    ///< Matches passing the residual.
  Status residual_status_;  ///< The residual's error after pass_.
  size_t match_pos_ = 0;
  bool have_probe_ = false;
  bool any_emitted_ = false;
  bool probing_ = false;  ///< The current pass has probe rows to stream.
  std::unique_ptr<spill::SpillFile> probe_file_;  ///< Its probe partition.
  std::deque<Pass> queue_;  ///< Partition pairs awaiting their pass.
};

class NestedLoopsJoinNode : public ExecNode {
 public:
  NestedLoopsJoinNode(PhysicalOpPtr op, std::unique_ptr<ExecNode> outer,
                      std::unique_ptr<ExecNode> inner, ExecContext* ctx)
      : ExecNode(std::move(op)),
        outer_(std::move(outer)),
        inner_(std::move(inner)),
        ctx_(ctx),
        outer_input_(outer_.get()),
        inner_input_(inner_.get()),
        // Semi and anti joins stop at the first qualifying inner row, so
        // their inner side is pulled one row at a time: a full batch per
        // outer row would read — and for a remote inner, ship — rows the
        // join never looks at. Other joins drain the inner side.
        inner_want_(op_->join_type == JoinType::kSemi ||
                            op_->join_type == JoinType::kAnti
                        ? 1
                        : ctx->options.batch_rows()),
        bindings_(Compile(BindingExprs(*op_),
                          EvalLayout{&outer_->op().output_cols})),
        predicate_(Compile(op_->predicate,
                           EvalLayout{&outer_->op().output_cols,
                                      &inner_->op().output_cols})) {}

  Status Open() override {
    DHQP_RETURN_NOT_OK(outer_->Open());
    BindPrograms();
    outer_input_.Reset();
    inner_opened_ = false;
    have_outer_ = false;
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    return FillBatch(out, max_rows,
                     [&](Row* row) { return Step(max_rows, row); });
  }

  Status Restart() override {
    DHQP_RETURN_NOT_OK(outer_->Restart());
    BindPrograms();
    outer_input_.Reset();
    have_outer_ = false;
    return Status::OK();
  }

 private:
  static std::vector<ScalarExprPtr> BindingExprs(const PhysicalOp& op) {
    std::vector<ScalarExprPtr> exprs;
    for (const auto& [name, expr] : op.remote_params) exprs.push_back(expr);
    return exprs;
  }

  void BindPrograms() {
    Bind(&bindings_, *ctx_);
    Bind(&predicate_, *ctx_);
  }

  /// Next join row; pulls at most `want` (the caller's demand) outer rows
  /// at a time.
  Result<bool> Step(int want, Row* out) {
    while (true) {
      if (!have_outer_) {
        DHQP_ASSIGN_OR_RETURN(bool has, outer_input_.Next(&outer_row_, want));
        if (!has) return false;
        have_outer_ = true;
        matched_ = false;
        // Correlation bindings (parameterized remote queries, §4.1.2):
        // evaluate outer-row expressions into the parameter map before
        // (re)starting the inner side, which binds them.
        EvalInput outer;
        outer.row = &outer_row_;
        for (size_t i = 0; i < bindings_.size(); ++i) {
          DHQP_ASSIGN_OR_RETURN(Value v, bindings_[i].EvalRow(outer));
          ctx_->params[op_->remote_params[i].first] = std::move(v);
        }
        if (!inner_opened_) {
          DHQP_RETURN_NOT_OK(inner_->Open());
          inner_opened_ = true;
        } else {
          DHQP_RETURN_NOT_OK(inner_->Restart());
        }
        inner_input_.Reset();
      }
      DHQP_ASSIGN_OR_RETURN(bool has_inner,
                            inner_input_.Next(&inner_row_, inner_want_));
      if (!has_inner) {
        bool was_matched = matched_;
        have_outer_ = false;
        if (op_->join_type == JoinType::kAnti && !was_matched) {
          *out = outer_row_;
          return true;
        }
        if (op_->join_type == JoinType::kLeftOuter && !was_matched) {
          *out = outer_row_;
          for (size_t i = 0; i < inner_->op().output_cols.size(); ++i) {
            out->push_back(Value::Null(inner_->op().output_types[i]));
          }
          return true;
        }
        continue;
      }
      bool pass = true;
      if (predicate_.has_value()) {
        EvalInput pair;
        pair.row = &outer_row_;
        pair.row2 = &inner_row_;
        DHQP_ASSIGN_OR_RETURN(pass, predicate_->Test(pair));
      }
      if (!pass) continue;
      matched_ = true;
      switch (op_->join_type) {
        case JoinType::kSemi:
          have_outer_ = false;  // One match suffices.
          *out = outer_row_;
          return true;
        case JoinType::kAnti:
          have_outer_ = false;  // Outer row disqualified.
          continue;
        default:
          *out = outer_row_;
          out->insert(out->end(), inner_row_.begin(), inner_row_.end());
          return true;
      }
    }
  }

  std::unique_ptr<ExecNode> outer_, inner_;
  ExecContext* ctx_;
  RowCursor<ExecNode> outer_input_;
  RowCursor<ExecNode> inner_input_;  ///< Reset on every inner (re)start.
  int inner_want_;         ///< Inner rows pulled per refill.
  std::vector<CompiledExpr> bindings_;  ///< One per op_->remote_params.
  std::optional<CompiledExpr> predicate_;
  Row outer_row_;
  Row inner_row_;
  bool have_outer_ = false;
  bool matched_ = false;
  bool inner_opened_ = false;
};

// Merge join over sorted inputs (inner equi-join).
class MergeJoinNode : public ExecNode {
 public:
  MergeJoinNode(PhysicalOpPtr op, std::unique_ptr<ExecNode> left,
                std::unique_ptr<ExecNode> right, ExecContext* ctx)
      : ExecNode(std::move(op)),
        left_(std::move(left)),
        right_(std::move(right)),
        ctx_(ctx),
        left_keys_(*op_, /*left=*/true, *left_),
        right_keys_(*op_, /*left=*/false, *right_),
        predicate_(Compile(op_->predicate,
                           EvalLayout{&left_->op().output_cols,
                                      &right_->op().output_cols})),
        left_input_(left_.get()),
        right_input_(right_.get()) {}

  Status Open() override {
    DHQP_RETURN_NOT_OK(left_->Open());
    DHQP_RETURN_NOT_OK(right_->Open());
    Reset();
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    return FillBatch(out, max_rows, [&](Row* row) { return Step(row); });
  }

  Status Restart() override {
    DHQP_RETURN_NOT_OK(left_->Restart());
    DHQP_RETURN_NOT_OK(right_->Restart());
    Reset();
    return Status::OK();
  }

 private:
  void Reset() {
    left_keys_.Bind(*ctx_);
    right_keys_.Bind(*ctx_);
    Bind(&predicate_, *ctx_);
    left_input_.Reset();
    right_input_.Reset();
    right_done_ = false;
    done_ = false;
    have_left_ = false;
    group_.clear();
    group_pos_ = 0;
    right_ahead_ = false;
  }

  /// Next join row. Both inputs are pulled one row at a time: the join
  /// ends as soon as either side runs out, and must not have read ahead
  /// into the other. Sticky end-of-stream: a post-EOF call must not
  /// advance the surviving child.
  Result<bool> Step(Row* out) {
    if (done_) return false;
    while (true) {
      // Emit pending (left row x buffered right group) combinations.
      while (have_left_ && group_pos_ < group_.size()) {
        const Row& r = group_[group_pos_++];
        bool pass = true;
        if (predicate_.has_value()) {
          EvalInput pair;
          pair.row = &left_row_;
          pair.row2 = &r;
          DHQP_ASSIGN_OR_RETURN(pass, predicate_->Test(pair));
        }
        if (!pass) continue;
        *out = left_row_;
        out->insert(out->end(), r.begin(), r.end());
        return true;
      }
      // Advance left, past rows whose key has a NULL: they match nothing.
      DHQP_ASSIGN_OR_RETURN(bool has, left_input_.Next(&left_row_, 1));
      if (!has) {
        done_ = true;
        return false;
      }
      IndexKey lkey;
      DHQP_ASSIGN_OR_RETURN(bool lcomplete, KeyOf(&left_keys_, left_row_, &lkey));
      if (!lcomplete) {
        have_left_ = false;
        continue;
      }
      have_left_ = true;
      group_pos_ = 0;
      // If the buffered group matches, reuse it (duplicate left keys).
      if (!group_.empty() && CompareKeys(lkey, group_key_) == 0) continue;
      // Otherwise advance right until its key >= left key, buffering the
      // equal-key run.
      group_.clear();
      group_pos_ = 0;
      while (true) {
        if (!right_ahead_) {
          DHQP_ASSIGN_OR_RETURN(bool rhas, right_input_.Next(&right_row_, 1));
          if (!rhas) {
            right_done_ = true;
            break;
          }
          right_ahead_ = true;
        }
        IndexKey rkey;
        DHQP_ASSIGN_OR_RETURN(bool rcomplete,
                              KeyOf(&right_keys_, right_row_, &rkey));
        // A right row whose key has a NULL matches nothing: skip it as if
        // it sorted below the left key.
        int c = rcomplete ? CompareKeys(rkey, lkey) : -1;
        if (c < 0) {
          right_ahead_ = false;  // Skip this right row.
          continue;
        }
        if (c == 0) {
          group_.push_back(right_row_);
          group_key_ = rkey;
          right_ahead_ = false;
          continue;
        }
        break;  // Right is ahead; left must advance.
      }
      if (group_.empty()) {
        have_left_ = false;  // No right match for this left key.
        if (right_done_ && !right_ahead_) {
          // Right exhausted: remaining left rows cannot match.
          done_ = true;
          return false;
        }
        have_left_ = false;
        continue;
      }
      group_key_ = lkey;
    }
  }

  /// One row's key through `keys`; false when it has a NULL.
  static Result<bool> KeyOf(JoinKeys* keys, const Row& row, IndexKey* key) {
    EvalInput in;
    in.row = &row;
    size_t done = 0;
    DHQP_RETURN_NOT_OK(keys->Eval(in, 1, &done));
    return keys->Key(0, key);
  }

  std::unique_ptr<ExecNode> left_, right_;
  ExecContext* ctx_;
  JoinKeys left_keys_, right_keys_;
  std::optional<CompiledExpr> predicate_;
  RowCursor<ExecNode> left_input_, right_input_;
  Row left_row_, right_row_;
  bool have_left_ = false, right_ahead_ = false;
  bool right_done_ = false;
  bool done_ = false;  ///< Sticky EOF; later steps must not touch children.
  std::vector<Row> group_;
  IndexKey group_key_;
  size_t group_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Aggregation.
// ---------------------------------------------------------------------------

struct Accumulator {
  int64_t count = 0;
  double sum_d = 0;
  int64_t sum_i = 0;
  bool any = false;
  Value min, max;
  std::set<std::string> distinct;  ///< Fingerprints for DISTINCT.
};

// An aggregate operator's aggregates, compiled at its first Open: each
// function an enum, each argument a program over the operator's input.
class Aggregates {
 public:
  Aggregates(const std::vector<AggregateItem>& items, const ExecNode& input) {
    for (const AggregateItem& item : items) {
      Spec spec{FuncOf(item.func), item.distinct, item.type, -1};
      if (item.arg != nullptr) {
        spec.arg = static_cast<int>(args_.size());
        args_.emplace_back(*item.arg, EvalLayout{&input.op().output_cols});
      }
      specs_.push_back(spec);
    }
  }

  void Bind(const ExecContext& ctx) { dhqp::Bind(&args_, ctx); }

  size_t size() const { return specs_.size(); }

  /// Evaluates every argument over the first `*n` of `rows`, cutting `*n`
  /// to the first failing row, whose error is returned.
  Status Eval(const std::vector<Row>& rows, size_t* n) {
    return EvalEach(&args_, EvalInput{&rows}, n);
  }

  /// Folds row `r` of the last Eval into `accs`, one per aggregate. SUM
  /// over integers checks its running total; AVG sums in double.
  Status Accumulate(size_t r, std::vector<Accumulator>* accs) const {
    for (size_t i = 0; i < specs_.size(); ++i) {
      const Spec& spec = specs_[i];
      const Value& v = spec.arg >= 0
                           ? args_[static_cast<size_t>(spec.arg)].value(r)
                           : count_star_arg_;
      if (spec.func != Func::kCountStar && v.is_null()) continue;
      Accumulator& acc = (*accs)[i];
      if (spec.distinct) {
        std::string fp = DataTypeName(v.type()) + v.ToString();
        if (!acc.distinct.insert(std::move(fp)).second) continue;
      }
      acc.count++;
      switch (spec.func) {
        case Func::kSum:
        case Func::kAvg:
          if (v.type() == DataType::kDouble) {
            acc.sum_d += v.double_value();
            break;
          }
          acc.sum_d += static_cast<double>(v.int64_value());
          if (spec.func == Func::kSum && spec.type != DataType::kDouble &&
              __builtin_add_overflow(acc.sum_i, v.int64_value(), &acc.sum_i)) {
            return Status::ExecutionError("arithmetic overflow");
          }
          break;
        case Func::kMin:
          if (!acc.any || v.Compare(acc.min) < 0) acc.min = v;
          break;
        case Func::kMax:
          if (!acc.any || v.Compare(acc.max) > 0) acc.max = v;
          break;
        case Func::kCount:
        case Func::kCountStar:
          break;
      }
      acc.any = true;
    }
    return Status::OK();
  }

  /// Aggregate `i`'s result from its accumulator.
  Value Finalize(size_t i, const Accumulator& acc) const {
    const Spec& spec = specs_[i];
    switch (spec.func) {
      case Func::kCount:
      case Func::kCountStar:
        return Value::Int64(acc.count);
      default:
        break;
    }
    if (!acc.any) return Value::Null(spec.type);
    switch (spec.func) {
      case Func::kSum:
        return spec.type == DataType::kDouble ? Value::Double(acc.sum_d)
                                              : Value::Int64(acc.sum_i);
      case Func::kAvg:
        return Value::Double(acc.sum_d / static_cast<double>(acc.count));
      case Func::kMin:
        return acc.min;
      default:
        return acc.max;
    }
  }

 private:
  enum class Func { kCount, kCountStar, kSum, kAvg, kMin, kMax };

  struct Spec {
    Func func;
    bool distinct;
    DataType type;
    int arg;  ///< Index into args_; -1 for COUNT(*).
  };

  static Func FuncOf(const std::string& name) {
    if (name == "COUNT") return Func::kCount;
    if (name == "COUNT*") return Func::kCountStar;
    if (name == "SUM") return Func::kSum;
    if (name == "AVG") return Func::kAvg;
    if (name == "MIN") return Func::kMin;
    return Func::kMax;
  }

  std::vector<Spec> specs_;
  std::vector<CompiledExpr> args_;
  const Value count_star_arg_ = Value::Int64(1);
};

// Group-column positions in an aggregate's input, resolved once. BuildNode
// has checked that the input produces every group column.
std::vector<size_t> GroupPositions(const PhysicalOp& op, const ExecNode& input) {
  std::vector<size_t> positions;
  positions.reserve(op.group_by.size());
  for (int g : op.group_by) {
    positions.push_back(
        static_cast<size_t>(ColumnPosition(input.op().output_cols, g)));
  }
  return positions;
}

// A row's group key, built at its exact size.
void GroupKey(const Row& row, const std::vector<size_t>& positions,
              IndexKey* key) {
  key->clear();
  key->reserve(positions.size());
  for (size_t p : positions) key->push_back(row[p]);
}

class HashAggregateNode : public ExecNode {
 public:
  HashAggregateNode(PhysicalOpPtr op, std::unique_ptr<ExecNode> child,
                    ExecContext* ctx)
      : ExecNode(std::move(op)),
        child_(std::move(child)),
        ctx_(ctx),
        aggs_(op_->aggregates, *child_),
        group_pos_(GroupPositions(*op_, *child_)) {}

  Status Open() override {
    DHQP_RETURN_NOT_OK(child_->Open());
    return Start();
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    // Spilled partitions are aggregated one pass at a time as the groups
    // already served run out.
    while (pos_ >= results_.size() && !pending_.empty()) {
      PendingPart part = std::move(pending_.front());
      pending_.pop_front();
      DHQP_RETURN_NOT_OK(RunPass(part.file.get(), part.level));
    }
    return SliceRows(results_, &pos_, max_rows, out);
  }

  Status Restart() override {
    DHQP_RETURN_NOT_OK(child_->Restart());
    return Start();
  }

 private:
  struct KeyLess {
    bool operator()(const IndexKey& a, const IndexKey& b) const {
      return CompareKeys(a, b) < 0;
    }
  };

  using GroupMap = std::map<IndexKey, std::vector<Accumulator>, KeyLess>;

  struct PendingPart {
    std::unique_ptr<spill::SpillFile> file;
    int level = 0;  ///< The hash level its pass sheds at.
  };

  Status Start() {
    aggs_.Bind(*ctx_);
    pending_.clear();
    mem_.Bind(profile_, ctx_->memory);
    return RunPass(/*file=*/nullptr, /*level=*/0);
  }

  /// One aggregation pass over the child (`file` null, level 0) or over a
  /// spilled partition: groups its rows into results_. When a new key would
  /// outgrow the grant at a level <= kSpillDepthCap, the pass sheds it —
  /// and every later key not yet resident — into partitions at that level,
  /// each queued for a pass of its own. Resident keys keep accumulating in
  /// memory, so a key lives either in `groups` or in exactly one partition
  /// file, and the partitions need no accumulator merging. Shedding is
  /// STICKY even if the grant pressure recedes: the query-wide tracker
  /// moves under concurrent workers, and admitting a key to memory after
  /// some of its rows already went to a file would emit that group twice.
  /// Past the cap a pass aggregates in memory regardless: correctness over
  /// enforcement.
  Status RunPass(spill::SpillFile* file, int level) {
    results_.clear();
    pos_ = 0;
    mem_.ReleaseAll();
    GroupMap groups;
    SpillPartitions parts(ctx_, profile_, level);
    // Finds or creates the accumulator group for `key`; leaves *accs null
    // after routing the row to a partition instead.
    auto accs_for = [&](IndexKey& key, const Row& row,
                        std::vector<Accumulator>** accs) -> Status {
      *accs = nullptr;
      auto it = groups.find(key);
      if (it != groups.end()) {
        *accs = &it->second;
        return Status::OK();
      }
      const int64_t add = HashGroupBytes(RowMemBytes(key), aggs_.size());
      if (!parts.is_open() &&
          (groups.empty() || level > kSpillDepthCap ||
           !GrantExceeded(ctx_, mem_.pending(), add))) {
        auto [it2, inserted] = groups.try_emplace(std::move(key));
        it2->second.resize(aggs_.size());
        mem_.Add(add);
        *accs = &it2->second;
        return Status::OK();
      }
      if (!parts.is_open()) DHQP_RETURN_NOT_OK(parts.Open());
      return parts.Append(key, row);
    };
    // Aggregate arguments are evaluated a batch at a time, and the scalar
    // (no GROUP BY) case keeps a direct pointer to its single group.
    std::vector<Accumulator>* scalar_accs = nullptr;
    if (op_->group_by.empty()) {
      auto [it, inserted] = groups.try_emplace(IndexKey{});
      it->second.resize(aggs_.size());
      scalar_accs = &it->second;
    }
    PassInput input{child_.get(), file};
    RowBatch batch;
    IndexKey key;
    while (true) {
      DHQP_ASSIGN_OR_RETURN(
          bool has, input.NextBatch(&batch, ctx_->options.batch_rows()));
      if (!has) break;
      size_t n = batch.rows.size();
      const Status failed = aggs_.Eval(batch.rows, &n);
      for (size_t r = 0; r < n; ++r) {
        std::vector<Accumulator>* accs = scalar_accs;
        if (accs == nullptr) {
          const Row& row = batch.rows[r];
          GroupKey(row, group_pos_, &key);
          DHQP_RETURN_NOT_OK(accs_for(key, row, &accs));
          if (accs == nullptr) continue;  // Routed to a partition.
        }
        DHQP_RETURN_NOT_OK(aggs_.Accumulate(r, accs));
      }
      DHQP_RETURN_NOT_OK(failed);
    }
    FinalizeGroups(&groups);
    if (!parts.is_open()) return Status::OK();
    DHQP_ASSIGN_OR_RETURN(auto files, parts.Finish());
    for (auto& f : files) {
      if (f->rows() > 0) {
        pending_.push_back(PendingPart{std::move(f), level + 1});
      }
    }
    return Status::OK();
  }

  /// Converts a group map into served rows, swapping the memory accounting
  /// over to results_ (the map dies in the caller).
  void FinalizeGroups(GroupMap* groups) {
    for (auto& [key, accs] : *groups) {
      Row out = key;
      for (size_t i = 0; i < aggs_.size(); ++i) {
        out.push_back(aggs_.Finalize(i, accs[i]));
      }
      results_.push_back(std::move(out));
    }
    mem_.ReleaseAll();
    for (const Row& r : results_) mem_.Add(RowMemBytes(r));
    mem_.Flush();
  }

  std::unique_ptr<ExecNode> child_;
  ExecContext* ctx_;
  Aggregates aggs_;
  std::vector<size_t> group_pos_;
  std::vector<Row> results_;
  OperatorMem mem_;
  size_t pos_ = 0;
  std::deque<PendingPart> pending_;  ///< Grace partitions not yet served.
};

// Stream aggregation over input sorted by the group columns.
class StreamAggregateNode : public ExecNode {
 public:
  StreamAggregateNode(PhysicalOpPtr op, std::unique_ptr<ExecNode> child,
                      ExecContext* ctx)
      : ExecNode(std::move(op)),
        child_(std::move(child)),
        ctx_(ctx),
        aggs_(op_->aggregates, *child_),
        group_pos_(GroupPositions(*op_, *child_)) {}

  Status Open() override {
    DHQP_RETURN_NOT_OK(child_->Open());
    Reset();
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    return FillBatch(out, max_rows, [this](Row* row) { return NextGroup(row); });
  }

  Status Restart() override {
    DHQP_RETURN_NOT_OK(child_->Restart());
    Reset();
    return Status::OK();
  }

 private:
  void Reset() {
    aggs_.Bind(*ctx_);
    batch_.clear();
    pos_ = 0;
    done_ = false;
    emitted_scalar_ = false;
  }

  /// True when `row`'s group columns equal `key`.
  bool InGroup(const Row& row, const IndexKey& key) const {
    for (size_t k = 0; k < group_pos_.size(); ++k) {
      if (row[group_pos_[k]].Compare(key[k]) != 0) return false;
    }
    return true;
  }

  /// Accumulates the next run of equal group keys into one output row. The
  /// input is read a batch at a time, its aggregate arguments evaluated per
  /// batch; a row whose argument failed returns the error when reached.
  Result<bool> NextGroup(Row* out) {
    if (done_) return false;
    IndexKey current_key;
    std::vector<Accumulator> accs(aggs_.size());
    bool have_group = false;
    while (true) {
      if (pos_ >= batch_.rows.size()) {
        DHQP_ASSIGN_OR_RETURN(
            bool has, child_->NextBatch(&batch_, ctx_->options.batch_rows()));
        pos_ = 0;
        if (!has) {
          done_ = true;
          break;
        }
        evaluated_ = batch_.rows.size();
        batch_status_ = aggs_.Eval(batch_.rows, &evaluated_);
      }
      const Row& row = batch_.rows[pos_];
      if (!have_group) {
        GroupKey(row, group_pos_, &current_key);
        have_group = true;
      } else if (!InGroup(row, current_key)) {
        break;  // The row starts the next group.
      }
      if (pos_ == evaluated_) return batch_status_;
      DHQP_RETURN_NOT_OK(aggs_.Accumulate(pos_, &accs));
      ++pos_;
    }
    if (!have_group) {
      // Empty input: scalar aggregates still produce one row.
      if (op_->group_by.empty() && !emitted_scalar_) {
        emitted_scalar_ = true;
        out->clear();
        for (size_t i = 0; i < aggs_.size(); ++i) {
          out->push_back(aggs_.Finalize(i, Accumulator{}));
        }
        return true;
      }
      return false;
    }
    emitted_scalar_ = true;
    *out = current_key;
    for (size_t i = 0; i < aggs_.size(); ++i) {
      out->push_back(aggs_.Finalize(i, accs[i]));
    }
    return true;
  }

  std::unique_ptr<ExecNode> child_;
  ExecContext* ctx_;
  Aggregates aggs_;
  std::vector<size_t> group_pos_;
  RowBatch batch_;          ///< The input batch being grouped.
  size_t pos_ = 0;          ///< Its next row.
  size_t evaluated_ = 0;    ///< Its rows whose arguments evaluated.
  Status batch_status_;     ///< The error of the row at evaluated_.
  bool done_ = false;
  bool emitted_scalar_ = false;
};

// ---------------------------------------------------------------------------
// Operator profiling (STATISTICS PROFILE analog).
// ---------------------------------------------------------------------------

// Decorator recording actual execution stats for one operator occurrence.
// Wrapping (instead of instrumenting every node class) keeps the node
// implementations untouched and guarantees uniform accounting. Timing is
// inclusive (children are timed inside the parent's interval) and uses
// fastclock ticks; every NextBatch call is timed, the batch amortizing the
// two clock reads. For remote operators the wrapper also installs the
// profile's charge sink on the calling thread, so link traffic — including
// retries and injected faults — lands on exactly this operator.
//
// Row and batch counts go to the shared profile atomics on every call, so
// dm_exec_requests reads live, monotonically non-decreasing row counts
// mid-query. NextBatch time accumulates in a plain member (each exec node
// is driven by one thread at a time; parallel Concat branches and exchange
// workers own distinct nodes) and is flushed by the destructor, which the
// executor joins/happens-before the profile being rendered.
class ProfiledNode : public ExecNode {
 public:
  ProfiledNode(std::unique_ptr<ExecNode> inner, OperatorProfile* profile)
      : ExecNode(inner->op_ptr()),
        inner_(std::move(inner)),
        prof_(profile),
        sink_(IsRemoteOp(op_->kind) ? &profile->link_charges : nullptr),
        wait_sink_(IsRemoteOp(op_->kind) ? &profile->wait_tally : nullptr) {}

  ~ProfiledNode() override {
    // The profile tree (owned by ExecContext) outlives the exec tree, so
    // recording teardown time here is safe.
    const int64_t t0 = fastclock::Ticks();
    inner_.reset();
    prof_->close_ticks.fetch_add(fastclock::Ticks() - t0,
                                 std::memory_order_relaxed);
    prof_->next_ticks.fetch_add(next_ticks_, std::memory_order_relaxed);
  }

  Status Open() override {
    prof_->opens.fetch_add(1, std::memory_order_relaxed);
    net::ScopedChargeSink charge(sink_);
    waits::ScopedOperatorTally waits(wait_sink_);
    const int64_t t0 = fastclock::Ticks();
    Status st = inner_->Open();
    prof_->open_ticks.fetch_add(fastclock::Ticks() - t0,
                                std::memory_order_relaxed);
    return st;
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    net::ScopedChargeSink charge(sink_);
    waits::ScopedOperatorTally waits(wait_sink_);
    const int64_t t0 = fastclock::Ticks();
    Result<bool> result = inner_->NextBatch(out, max_rows);
    next_ticks_ += fastclock::Ticks() - t0;
    prof_->exec_batches.fetch_add(1, std::memory_order_relaxed);
    if (result.ok() && *result) {
      prof_->rows_out.fetch_add(static_cast<int64_t>(out->rows.size()),
                                std::memory_order_relaxed);
    }
    return result;
  }

  Status Restart() override {
    prof_->restarts.fetch_add(1, std::memory_order_relaxed);
    net::ScopedChargeSink charge(sink_);
    waits::ScopedOperatorTally waits(wait_sink_);
    const int64_t t0 = fastclock::Ticks();
    Status st = inner_->Restart();
    prof_->open_ticks.fetch_add(fastclock::Ticks() - t0,
                                std::memory_order_relaxed);
    return st;
  }

 private:
  std::unique_ptr<ExecNode> inner_;
  OperatorProfile* prof_;
  net::LinkChargeSink* sink_;  ///< Non-null only for remote operators.
  waits::WaitTally* wait_sink_;  ///< Ditto: link waits land on this operator.
  int64_t next_ticks_ = 0;     ///< NextBatch time, flushed on destruction.
};

// Constructs the bare node for `plan` from already-built children. `frag`
// is non-null when building one worker's instance of an exchange fragment:
// a parallel table scan then reads only this worker's block-cyclic slice.
Result<std::unique_ptr<ExecNode>> BuildNode(
    const PhysicalOpPtr& plan, std::vector<std::unique_ptr<ExecNode>> children,
    ExecContext* ctx, const FragmentContext* frag) {
  switch (plan->kind) {
    case PhysicalOpKind::kTableScan:
      if (frag != nullptr && frag->dop > 1 && plan->dop > 1) {
        return std::unique_ptr<ExecNode>(
            new ScanNode(plan, ctx, frag->partition, frag->dop));
      }
      return std::unique_ptr<ExecNode>(new ScanNode(plan, ctx));
    case PhysicalOpKind::kIndexRange:
      return std::unique_ptr<ExecNode>(new IndexRangeNode(plan, ctx));
    case PhysicalOpKind::kRemoteScan:
    case PhysicalOpKind::kRemoteRange:
    case PhysicalOpKind::kRemoteQuery:
      return std::unique_ptr<ExecNode>(new RemoteNode(plan, ctx));
    case PhysicalOpKind::kRemoteFetch:
      return std::unique_ptr<ExecNode>(new RemoteFetchNode(plan, ctx));
    case PhysicalOpKind::kConstTable:
      return std::unique_ptr<ExecNode>(new ConstTableNode(plan));
    case PhysicalOpKind::kEmptyTable:
      return std::unique_ptr<ExecNode>(new EmptyNode(plan));
    case PhysicalOpKind::kFullTextLookup:
      return std::unique_ptr<ExecNode>(new FullTextLookupNode(plan, ctx));
    case PhysicalOpKind::kFilter:
      return std::unique_ptr<ExecNode>(
          new FilterNode(plan, std::move(children[0]), ctx));
    case PhysicalOpKind::kStartupFilter:
      return std::unique_ptr<ExecNode>(
          new StartupFilterNode(plan, std::move(children[0]), ctx));
    case PhysicalOpKind::kProject:
      return std::unique_ptr<ExecNode>(
          new ProjectNode(plan, std::move(children[0]), ctx));
    case PhysicalOpKind::kTop:
      return std::unique_ptr<ExecNode>(
          new TopNode(plan, std::move(children[0])));
    case PhysicalOpKind::kSort:
      return std::unique_ptr<ExecNode>(
          new SortNode(plan, std::move(children[0]), ctx));
    case PhysicalOpKind::kSpool:
      return std::unique_ptr<ExecNode>(
          new SpoolNode(plan, std::move(children[0]), ctx));
    case PhysicalOpKind::kConcat:
      return std::unique_ptr<ExecNode>(
          new ConcatNode(plan, std::move(children), ctx));
    case PhysicalOpKind::kHashJoin:
      return std::unique_ptr<ExecNode>(new HashJoinNode(
          plan, std::move(children[0]), std::move(children[1]), ctx));
    case PhysicalOpKind::kNestedLoopsJoin:
      return std::unique_ptr<ExecNode>(new NestedLoopsJoinNode(
          plan, std::move(children[0]), std::move(children[1]), ctx));
    case PhysicalOpKind::kMergeJoin:
      return std::unique_ptr<ExecNode>(new MergeJoinNode(
          plan, std::move(children[0]), std::move(children[1]), ctx));
    case PhysicalOpKind::kHashAggregate:
    case PhysicalOpKind::kStreamAggregate:
      for (int g : plan->group_by) {
        if (ColumnPosition(children[0]->op().output_cols, g) < 0) {
          return Status::Internal("group column not in input");
        }
      }
      if (plan->kind == PhysicalOpKind::kHashAggregate) {
        return std::unique_ptr<ExecNode>(
            new HashAggregateNode(plan, std::move(children[0]), ctx));
      }
      return std::unique_ptr<ExecNode>(
          new StreamAggregateNode(plan, std::move(children[0]), ctx));
    case PhysicalOpKind::kExchange:
      // Exchanges are built by the tree walkers below (they need the child
      // subtree NOT built — it runs on producer threads instead).
      return Status::Internal("exchange reached BuildNode");
  }
  return Status::Internal("unknown physical operator");
}

/// Allocates a profile slot for one operator occurrence, assigning the next
/// pre-order id (matching the EXPLAIN rendering).
std::unique_ptr<OperatorProfile> MakeProfileSlot(const PhysicalOpPtr& plan,
                                                 int* next_id) {
  auto p = std::make_unique<OperatorProfile>();
  p->id = (*next_id)++;
  p->kind = plan->kind;
  p->name = plan->Describe();
  p->estimated_rows = plan->estimated_rows;
  p->estimated_cost = plan->estimated_cost;
  if (IsRemoteOp(plan->kind)) p->link = plan->table.server_name;
  return p;
}

// Grows the profile tree for a whole plan: one slot per operator
// occurrence, with pre-order ids matching the EXPLAIN rendering. Grown
// before any exec node is built, so every exec-node instance of an
// operator — the serial region's one, or each exchange worker's — attaches
// to the same slot.
void BuildProfileRec(const PhysicalOpPtr& plan, int* next_id,
                     std::unique_ptr<OperatorProfile>* slot) {
  *slot = MakeProfileSlot(plan, next_id);
  OperatorProfile* prof = slot->get();
  for (const PhysicalOpPtr& child : plan->children) {
    prof->children.emplace_back();
    BuildProfileRec(child, next_id, &prof->children.back());
  }
}

// Builds the exec nodes for `plan` against its profile slot `prof`,
// wrapping each in a ProfiledNode. `frag` is null in the serial region of
// the plan and names the worker when building one instance of an exchange
// fragment; each instance adds its own counts and times to the shared
// slots, so the merge never double-counts. An exchange ends the walk: its
// child runs on the segment's producers, which build their own instances
// of it. Inside a fragment, sibling workers attach to one shared nested
// segment, registered under the exchange's slot — unique per occurrence,
// shared by the siblings.
Result<std::unique_ptr<ExecNode>> BuildTreeRec(const PhysicalOpPtr& plan,
                                               ExecContext* ctx,
                                               OperatorProfile* prof,
                                               const FragmentContext* frag) {
  std::unique_ptr<ExecNode> node;
  if (plan->kind == PhysicalOpKind::kExchange) {
    if (frag == nullptr && plan->dop > 1) {
      // A multi-consumer exchange only makes sense inside a fragment where
      // every partition has a worker draining it; the serial region drains
      // partition 0 only and the rest would wedge the producers.
      return Status::Internal("multi-consumer exchange in serial plan region");
    }
    node.reset(new ExchangeNode(plan, ctx,
                                frag != nullptr ? frag->exchanges : nullptr,
                                frag != nullptr ? frag->partition : 0));
  } else {
    std::vector<std::unique_ptr<ExecNode>> children;
    for (size_t i = 0; i < plan->children.size(); ++i) {
      DHQP_ASSIGN_OR_RETURN(auto child,
                            BuildTreeRec(plan->children[i], ctx,
                                         prof->children[i].get(), frag));
      children.push_back(std::move(child));
    }
    DHQP_ASSIGN_OR_RETURN(node,
                          BuildNode(plan, std::move(children), ctx, frag));
  }
  node->set_profile(prof);
  return std::unique_ptr<ExecNode>(new ProfiledNode(std::move(node), prof));
}

}  // namespace

int64_t HashGroupBytes(int64_t key_bytes, size_t aggregates) {
  return key_bytes + static_cast<int64_t>(aggregates * sizeof(Accumulator));
}

// ---------------------------------------------------------------------------
// Tree construction.
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ExecNode>> BuildExecTree(const PhysicalOpPtr& plan,
                                                ExecContext* ctx) {
  int next_id = 1;
  std::unique_ptr<OperatorProfile> root;
  BuildProfileRec(plan, &next_id, &root);
  ctx->profile = std::shared_ptr<OperatorProfile>(std::move(root));
  return BuildTreeRec(plan, ctx, ctx->profile.get(), /*frag=*/nullptr);
}

Result<std::unique_ptr<ExecNode>> BuildFragmentTree(
    const PhysicalOpPtr& plan, ExecContext* ctx, OperatorProfile* profile,
    const FragmentContext& frag) {
  return BuildTreeRec(plan, ctx, profile, &frag);
}

Result<std::vector<Row>> ExecutePlan(const PhysicalOpPtr& plan,
                                     ExecContext* ctx) {
  DHQP_ASSIGN_OR_RETURN(auto root, BuildExecTree(plan, ctx));
  // Publish the profile tree to the in-flight request *before* Open so
  // dm_exec_requests sees live row counts from the first batch onward.
  if (ctx->request != nullptr) ctx->request->set_profile(ctx->profile);
  DHQP_RETURN_NOT_OK(root->Open());
  // Batch sink: one virtual call per batch; the buffer is reused
  // (clear-and-refill) across pulls, rows move out of it.
  std::vector<Row> rows;
  RowBatch batch;
  while (true) {
    DHQP_ASSIGN_OR_RETURN(
        bool has, root->NextBatch(&batch, ctx->options.batch_rows()));
    if (!has) break;
    for (Row& r : batch.rows) rows.push_back(std::move(r));
  }
  return rows;
}

}  // namespace dhqp
