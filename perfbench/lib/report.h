#ifndef PERFBENCH_LIB_REPORT_H_
#define PERFBENCH_LIB_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lib/record.h"
#include "lib/spans.h"

namespace perfbench {

/// Totals over the ops of one measured phase.
struct Aggregate {
  int64_t attempted = 0;
  int64_t failed = 0;  ///< Ops that returned an error.
  int64_t wrong = 0;   ///< Ops whose answer the oracle rejected.
  std::vector<double> wall_ms;
  std::map<int, std::vector<double>> wall_ms_by_shape;
  /// Counters of all ops summed (max_peak_mem is a max); wall_ns/cpu_ns
  /// are the totals the per-op ratios divide.
  OpRecord sum;
  int64_t min_members_touched = -1;
  int64_t max_members_touched = 0;

  void Add(const OpRecord& rec);
  /// Sum over shapes of each shape's median wall time: a mix latency that
  /// does not depend on how many ops of each shape a phase ran.
  double ShapeMedianSumMs() const;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;  ///< Observations the value rests on.
};

/// End-to-end metrics of an untraced phase, in the order BENCHMARK.json
/// lists them, followed by `extras`: the metrics BENCHMARK.json does not
/// gate because they may be 0 or lack samples: the highest tail
/// percentile above p90 with >= 10 samples beyond it (when there is one),
/// how many samples lie beyond p90, error_rate and link_kb_per_op.
std::vector<Metric> EndToEndMetrics(const Aggregate& a, double setup_s,
                                    int64_t setup_repeats, double peak_rss_mb,
                                    std::vector<Metric>* extras);

/// Per-layer metrics of a traced phase: counters from the op records, and
/// times from the spans. `overhead_pct` is the traced phase's mix latency
/// against the untraced phase's of the same process.
std::vector<Metric> PerLayerMetrics(const Aggregate& traced,
                                    const std::vector<BenchSpan>& spans,
                                    const std::string& coordinator,
                                    double overhead_pct);

/// Why a run does not measure what its workload is meant to measure, or ""
/// when it does: tpch_local must not touch a link, tpch_governed must spill
/// and run exchange workers, tpcc_oltp must touch exactly one member per
/// op, federated_adhoc must mostly compile.
std::string ValidityProblem(const std::string& workload, const Aggregate& a);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// The final result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..},..}}.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

/// A metric as a JSON member: "name":{"value":..,"unit":..,"samples":..}.
std::string MetricJson(const Metric& m, bool with_samples);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_REPORT_H_
