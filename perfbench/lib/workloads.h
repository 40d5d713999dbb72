#ifndef PERFBENCH_LIB_WORKLOADS_H_
#define PERFBENCH_LIB_WORKLOADS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lib/record.h"
#include "src/common/status.h"
#include "src/core/engine.h"
#include "src/net/network.h"

namespace perfbench {

/// One named workload: a fixture built from the seed, a generator of ops,
/// and an oracle that checks every answer without sharing the optimizer
/// (reference results computed from the generated rows, or the same
/// statement re-run with the optimizer's distributed rewrites disabled).
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::vector<std::string> shapes() const = 0;
  /// Builds the fixture from `seed` (data load and linking). With
  /// `timed_providers` every linked server's source is wrapped in the
  /// provider timing decorator.
  virtual dhqp::Status Setup(uint64_t seed, bool timed_providers) = 0;
  /// Runs each statement shape once so histograms, remote metadata and
  /// plan-cache entries are filled before anything is timed.
  virtual dhqp::Status Warm() = 0;

  /// The engine clients talk to, and every link the workload's data
  /// crosses (empty for local workloads).
  virtual dhqp::Engine* coordinator() = 0;
  virtual std::vector<dhqp::net::Link*> links() = 0;

  /// Next op of the seeded sequence.
  virtual Op Next() = 0;
  /// Runs `op`: the timed part. Statements go through RunStatement.
  virtual dhqp::Status Run(const Op& op, OpRecord* rec) = 0;
  /// Checks the op's answers; false with a reason on a wrong answer.
  virtual bool Check(const Op& op, const OpRecord& rec, std::string* why) = 0;
  /// End-of-run check of state the ops left behind.
  virtual bool FinalCheck(std::string* why) {
    (void)why;
    return true;
  }
  /// Workload parameters recorded with every result.
  virtual std::vector<std::pair<std::string, std::string>> Params() const = 0;
};

/// The workloads by name: tpch_local, tpch_governed, federated_adhoc,
/// tpcc_oltp. Null for an unknown name. `scratch_dir` is where a workload
/// may write (spill files).
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& scratch_dir);
std::vector<std::string> WorkloadNames();

/// Executes one statement inside a `core.execute` span and keeps its
/// answer and peak memory in `rec`.
dhqp::Status RunStatement(dhqp::Engine* engine, const std::string& sql,
                          const std::map<std::string, dhqp::Value>& params,
                          OpRecord* rec);

/// Compares two answers as multisets of rows: same row count, and after
/// sorting, equal values column by column with doubles equal within a
/// relative tolerance. False with a reason on the first difference.
bool SameRows(const dhqp::VectorRowset& got, const dhqp::VectorRowset& want,
              std::string* why);

/// |a - b| within `rel` of the larger magnitude (or 1e-9 absolute).
bool NearlyEqual(double a, double b, double rel = 1e-9);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_WORKLOADS_H_
