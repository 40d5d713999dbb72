#include "src/executor/profile.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace dhqp {

namespace {

void RenderInto(const OperatorProfile& p, int indent, std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  char buf[160];
  std::snprintf(buf, sizeof(buf), "#%d ", p.id);
  out->append(buf);
  out->append(p.name);
  std::snprintf(buf, sizeof(buf),
                "  [est_rows=%.1f act_rows=%" PRId64 " time_ms=%.3f opens=%"
                PRId64,
                p.estimated_rows, p.rows_out.load(), p.total_ns() / 1e6,
                p.opens.load());
  out->append(buf);
  if (int64_t r = p.rows_read.load(); r > 0) {
    std::snprintf(buf, sizeof(buf), " read=%" PRId64, r);
    out->append(buf);
  }
  if (int64_t r = p.restarts.load(); r > 0) {
    std::snprintf(buf, sizeof(buf), " restarts=%" PRId64, r);
    out->append(buf);
  }
  if (int64_t eb = p.exec_batches.load(); eb > 0) {
    std::snprintf(buf, sizeof(buf), " ebatches=%" PRId64, eb);
    out->append(buf);
  }
  if (!p.link.empty()) {
    const net::LinkChargeSink& c = p.link_charges;
    std::snprintf(buf, sizeof(buf), " link=%s msgs=%" PRId64,
                  p.link.c_str(), c.messages.load());
    out->append(buf);
    if (int64_t rows = c.rows.load(); rows > 0) {
      std::snprintf(buf, sizeof(buf), " wire_rows=%" PRId64, rows);
      out->append(buf);
    }
    if (int64_t b = p.batches.load(); b > 0) {
      std::snprintf(buf, sizeof(buf), " batches=%" PRId64, b);
      out->append(buf);
    }
    if (int64_t r = c.retries.load(); r > 0) {
      std::snprintf(buf, sizeof(buf), " retries=%" PRId64, r);
      out->append(buf);
    }
    if (int64_t t = c.timeouts.load(); t > 0) {
      std::snprintf(buf, sizeof(buf), " timeouts=%" PRId64, t);
      out->append(buf);
    }
    if (int64_t f = c.faults.load(); f > 0) {
      std::snprintf(buf, sizeof(buf), " faults=%" PRId64, f);
      out->append(buf);
    }
  }
  if (int64_t m = p.mem.peak(); m > 0) {
    std::snprintf(buf, sizeof(buf), " mem=%" PRId64 "B", m);
    out->append(buf);
  }
  if (int64_t s = p.spills.load(); s > 0) {
    std::snprintf(buf, sizeof(buf), " spill=%" PRId64 "(%" PRId64 "B)", s,
                  p.spill_bytes.load());
    out->append(buf);
  }
  bool first_wait = true;
  for (int i = 0; i < waits::kNumWaitTypes; ++i) {
    const auto type = static_cast<waits::WaitType>(i);
    const int64_t n = p.wait_tally.CountFor(type);
    if (n == 0) continue;
    std::snprintf(buf, sizeof(buf), "%s%s:%.3fms(%" PRId64 ")",
                  first_wait ? " wait=" : ",", waits::Name(type),
                  p.wait_tally.NsFor(type) / 1e6, n);
    out->append(buf);
    first_wait = false;
  }
  out->append("]\n");
  for (const auto& child : p.children) {
    RenderInto(*child, indent + 1, out);
  }
}

}  // namespace

std::string RenderOperatorProfile(const OperatorProfile& profile) {
  std::string out;
  RenderInto(profile, 0, &out);
  return out;
}

namespace {

void FlattenInto(const OperatorProfile& p, int parent_id,
                 std::vector<FlatOperator>* out) {
  out->push_back(FlatOperator{&p, parent_id});
  for (const auto& child : p.children) {
    FlattenInto(*child, p.id, out);
  }
}

}  // namespace

std::vector<FlatOperator> FlattenOperatorProfile(const OperatorProfile& root) {
  std::vector<FlatOperator> out;
  FlattenInto(root, 0, &out);
  return out;
}

namespace {

int64_t Load(const std::atomic<int64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

}  // namespace

ExecStats FoldExecStats(const OperatorProfile& root) {
  ExecStats s;
  s.rows_output = Load(root.rows_out);
  // The root also counts the pull that ended the statement — end of data
  // or the error — which delivered no batch.
  s.exec_batches = std::max<int64_t>(Load(root.exec_batches) - 1, 0);
  std::vector<const OperatorProfile*> pending = {&root};
  while (!pending.empty()) {
    const OperatorProfile& p = *pending.back();
    pending.pop_back();
    if (IsRemoteOp(p.kind)) {
      // Whatever a remote operator hands its parent came over the link.
      s.rows_from_remote += Load(p.rows_out);
      (p.kind == PhysicalOpKind::kRemoteQuery ? s.remote_commands
                                              : s.remote_opens) +=
          Load(p.remote_opens);
    }
    s.remote_fetches += Load(p.remote_fetches);
    s.remote_batches += Load(p.batches);
    s.prefetch_stalls += Load(p.queue_stalls);
    s.startup_skips += Load(p.startup_skips);
    s.parallel_branches += Load(p.worker_branches);
    s.exchange_batches += Load(p.exchange_batches);
    s.spool_rescans += Load(p.spool_rescans);
    s.remote_retries += Load(p.link_charges.retries);
    s.remote_timeouts += Load(p.link_charges.timeouts);
    s.faults_injected += Load(p.link_charges.faults);
    s.members_skipped += Load(p.members_skipped);
    s.spills += Load(p.spills);
    s.spill_bytes += Load(p.spill_bytes);
    for (const auto& child : p.children) {
      // A Concat opens each member branch it runs (a statically pruned,
      // empty member is not a partition); an exchange runs one worker per
      // open of its child.
      if (p.kind == PhysicalOpKind::kConcat &&
          child->kind != PhysicalOpKind::kEmptyTable) {
        s.partitions_opened += Load(child->opens);
      }
      if (p.kind == PhysicalOpKind::kExchange) {
        s.parallel_branches += Load(child->opens);
      }
      pending.push_back(child.get());
    }
  }
  return s;
}

}  // namespace dhqp
