#ifndef DHQP_TESTS_DIFFERENTIAL_HARNESS_H_
#define DHQP_TESTS_DIFFERENTIAL_HARNESS_H_

// Shared differential-execution harness: run one statement under several
// execution modes — (dop, exec_batch_rows) pairs — and assert the
// mode-invariant surface agrees: result multiset, warnings, outcome code,
// and the stats that must not depend on how the plan was driven. Used by
// the batch-size suite (batch_exec_test.cc), the DOP suite
// (exchange_exec_test.cc), the spill and wait suites, and the optimizer
// ablation suite (differential_test.cc, through the query generator).

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/waits.h"
#include "src/executor/profile.h"
#include "src/executor/worker.h"
#include "tests/test_util.h"

namespace dhqp {

/// Sorted multiset fingerprint of a result: row order is not part of the
/// comparable surface (gather arrival order is nondeterministic; ORDER BY
/// queries still agree because equal multisets with equal sorts are equal).
inline std::string Fingerprint(const QueryResult& r) {
  std::vector<std::string> rows;
  if (r.rowset != nullptr) {
    for (const Row& row : r.rowset->rows()) rows.push_back(RowToString(row));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& s : rows) out += s + "\n";
  return out;
}

inline std::string JoinWarnings(const QueryResult& r) {
  std::string out;
  for (const std::string& w : r.warnings) out += w + "\n";
  return out;
}

/// One execution mode of the differential cross: parallelism degree and
/// local batch size (the production default unless a suite varies it).
struct ExecMode {
  int dop = 1;
  int batch_rows = ExecOptions{}.exec_batch_rows;

  std::string Label() const {
    return "dop=" + std::to_string(dop) +
           " exec_batch_rows=" + std::to_string(batch_rows);
  }
};

/// One execution's comparable surface: result multiset, warnings, and the
/// stats that must be mode-invariant.
struct Observation {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  std::string fingerprint;
  std::string warnings;
  int64_t rows_output = 0;
  int64_t rows_from_remote = 0;
  /// Link messages and the rows they carried, summed over the operator
  /// tree's link_charges (only remote operators charge a link).
  int64_t link_messages = 0;
  int64_t wire_rows = 0;
  int64_t exec_batches = 0;
  int64_t parallel_branches = 0;  ///< Exchange workers + Concat branches.
  int exchange_ops = 0;           ///< Exchange operators in the chosen plan.
  waits::WaitTotals wait_totals;          ///< Per-query wait accounting.
  waits::WaitTotals profile_wait_totals;  ///< Sum over the operator tree.
};

/// Per-type sum of the wait tallies across an operator profile tree.
inline void SumProfileWaits(const OperatorProfile& p, waits::WaitTotals* out) {
  for (int i = 0; i < waits::kNumWaitTypes; ++i) {
    const auto type = static_cast<waits::WaitType>(i);
    out->count[i] += p.wait_tally.CountFor(type);
    out->ns[i] += p.wait_tally.NsFor(type);
  }
  for (const auto& child : p.children) SumProfileWaits(*child, out);
}

inline Observation Observe(Engine* host, const std::string& sql,
                           const ExecMode& mode) {
  host->options()->execution.dop = mode.dop;
  host->options()->execution.exec_batch_rows = mode.batch_rows;
  Observation obs;
  auto result = host->Execute(sql);
  // Every query worker (prefetch producer, exchange worker, Concat branch)
  // is joined before the statement returns, whatever its outcome.
  EXPECT_EQ(QueryWorkers::live(), 0) << sql << " (" << mode.Label() << ")";
  obs.ok = result.ok();
  if (!result.ok()) {
    obs.code = result.status().code();
    return obs;
  }
  obs.fingerprint = Fingerprint(*result);
  obs.warnings = JoinWarnings(*result);
  obs.rows_output = result->exec_stats.rows_output;
  obs.rows_from_remote = result->exec_stats.rows_from_remote;
  obs.exec_batches = result->exec_stats.exec_batches;
  obs.parallel_branches = result->exec_stats.parallel_branches;
  obs.exchange_ops = CountOps(result->plan, PhysicalOpKind::kExchange);
  obs.wait_totals = result->wait_totals;
  // Every executed SELECT carries its profile, whatever the mode.
  EXPECT_NE(result->profile, nullptr) << sql << " (" << mode.Label() << ")";
  if (result->profile != nullptr) {
    SumProfileWaits(*result->profile, &obs.profile_wait_totals);
    for (const FlatOperator& f : FlattenOperatorProfile(*result->profile)) {
      obs.link_messages += f.op->link_charges.messages.load();
      obs.wire_rows += f.op->link_charges.rows.load();
    }
  }
  return obs;
}

/// Serial execution at one batch size (the batch suite's axis).
inline Observation Observe(Engine* host, const std::string& sql,
                           int batch_rows) {
  return Observe(host, sql, ExecMode{/*dop=*/1, batch_rows});
}

/// Asserts the mode-invariant parts of two observations agree. `mode` names
/// the non-base mode in failure messages. Remote row counts — rows handed
/// on by remote operators, link messages and wire rows — are optionally
/// excluded: semi-join early termination may legitimately pull a different
/// number of remote rows per mode without changing the answer.
inline void ExpectEquivalent(const Observation& base, const Observation& obs,
                             const std::string& sql, const std::string& mode,
                             bool compare_remote_rows = true) {
  EXPECT_EQ(base.ok, obs.ok) << sql << " (" << mode << ")";
  if (!base.ok || !obs.ok) {
    EXPECT_EQ(base.code, obs.code) << sql << " (" << mode << ")";
    return;
  }
  EXPECT_EQ(base.fingerprint, obs.fingerprint) << sql << " (" << mode << ")";
  EXPECT_EQ(base.warnings, obs.warnings) << sql << " (" << mode << ")";
  EXPECT_EQ(base.rows_output, obs.rows_output) << sql << " (" << mode << ")";
  if (compare_remote_rows) {
    EXPECT_EQ(base.rows_from_remote, obs.rows_from_remote)
        << sql << " (" << mode << ")";
    EXPECT_EQ(base.link_messages, obs.link_messages)
        << sql << " (" << mode << ")";
    EXPECT_EQ(base.wire_rows, obs.wire_rows) << sql << " (" << mode << ")";
  }
}

/// Asserts one observation's wait accounting is internally sane. Wait
/// *amounts* are never part of the mode-invariant surface (they measure how
/// the plan was driven, which is exactly what varies across modes); what
/// must hold in every mode:
///   - no wait type went negative,
///   - operator-tree attribution never exceeds the per-query total for any
///     type (each blocked interval is charged to at most one operator and
///     exactly once to the query — double counting would break this),
///   - serial executions (no exchange in the plan) report zero
///     exchange-queue waits.
inline void ExpectWaitsSane(const Observation& obs, const std::string& sql,
                            const std::string& mode) {
  for (int i = 0; i < waits::kNumWaitTypes; ++i) {
    const auto type = static_cast<waits::WaitType>(i);
    EXPECT_GE(obs.wait_totals.count[i], 0)
        << sql << " (" << mode << ") " << waits::Name(type);
    EXPECT_GE(obs.wait_totals.ns[i], 0)
        << sql << " (" << mode << ") " << waits::Name(type);
    EXPECT_LE(obs.profile_wait_totals.count[i], obs.wait_totals.count[i])
        << sql << " (" << mode << ") " << waits::Name(type)
        << ": operator tree charged more waits than the query recorded";
  }
  if (obs.exchange_ops == 0) {
    EXPECT_EQ(obs.wait_totals.count[static_cast<int>(
                  waits::WaitType::kExchangeQueuePush)],
              0)
        << sql << " (" << mode << ")";
    EXPECT_EQ(obs.wait_totals.count[static_cast<int>(
                  waits::WaitType::kExchangeQueuePop)],
              0)
        << sql << " (" << mode << ")";
  }
}

/// One source table for the query generator.
struct QuerySource {
  std::string sql;    ///< FROM-clause spelling (possibly four-part).
  std::string alias;  ///< Alias; equal to sql for local tables.
};

/// Seeded generator of distributed queries over a pool of tables that all
/// share an integer join column `a`: random joins on `a`, random range
/// predicates with constants in [0, max_const], occasional GROUP BY
/// aggregates. Only integer columns are touched, so results are exact
/// under any evaluation order — what makes the fingerprints comparable
/// across plans, dop, batch sizes and memory budgets.
class DifferentialQueryGenerator {
 public:
  DifferentialQueryGenerator(uint64_t seed, std::vector<QuerySource> pool,
                             int64_t max_const = 120)
      : rng_(seed), pool_(std::move(pool)), max_const_(max_const) {}

  std::string Next() {
    int n = static_cast<int>(rng_.Uniform(1, 3));
    std::vector<QuerySource> from;
    for (int i = 0; i < n; ++i) {
      from.push_back(pool_[static_cast<size_t>(
          rng_.Uniform(0, static_cast<int64_t>(pool_.size()) - 1))]);
      for (int j = 0; j < i; ++j) {
        if (from.back().alias == from[static_cast<size_t>(j)].alias) {
          from.pop_back();
          --i;
          break;
        }
      }
    }

    std::string sql = "SELECT ";
    bool aggregate = rng_.Uniform(0, 3) == 0;
    std::string group_col = from[0].alias + ".a";
    if (aggregate) {
      sql += group_col + ", COUNT(*), SUM(" + from[0].alias + ".a)";
    } else {
      sql += "*";
    }
    sql += " FROM ";
    for (size_t i = 0; i < from.size(); ++i) {
      if (i) sql += ", ";
      sql += from[i].sql + " " +
             (from[i].alias == from[i].sql ? "" : from[i].alias);
    }
    std::vector<std::string> conjuncts;
    for (size_t i = 1; i < from.size(); ++i) {
      conjuncts.push_back(from[i - 1].alias + ".a = " + from[i].alias + ".a");
    }
    int preds = static_cast<int>(rng_.Uniform(0, 2));
    for (int i = 0; i < preds; ++i) {
      const QuerySource& src = from[static_cast<size_t>(
          rng_.Uniform(0, static_cast<int64_t>(from.size()) - 1))];
      const char* ops[] = {"<", "<=", ">", ">=", "=", "<>"};
      conjuncts.push_back(src.alias + ".a " + ops[rng_.Uniform(0, 5)] + " " +
                          std::to_string(rng_.Uniform(0, max_const_)));
    }
    if (!conjuncts.empty()) {
      sql += " WHERE ";
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        if (i) sql += " AND ";
        sql += conjuncts[i];
      }
    }
    if (aggregate) sql += " GROUP BY " + group_col;
    return sql;
  }

 private:
  Rng rng_;
  std::vector<QuerySource> pool_;
  int64_t max_const_;
};

}  // namespace dhqp

#endif  // DHQP_TESTS_DIFFERENTIAL_HARNESS_H_
