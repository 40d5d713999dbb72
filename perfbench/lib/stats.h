#ifndef PERFBENCH_LIB_STATS_H_
#define PERFBENCH_LIB_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `values` (0 < pct <= 100): the smallest value
/// with at least pct% of the samples at or below it. 0 for an empty input.
double Percentile(std::vector<double> values, double pct);

/// Samples strictly beyond the nearest-rank `pct` percentile of `n` samples.
int64_t SamplesBeyond(int64_t n, double pct);

/// True when the `pct` percentile of `n` samples has at least `min_beyond`
/// samples beyond it — the rule for reporting a tail percentile at all.
bool TailIsSupported(int64_t n, double pct, int64_t min_beyond = 10);

/// Highest of 50, 90, 99 and 99.9 whose tail holds at least `min_beyond`
/// samples; 0 when not even the median qualifies.
double HighestSupportedPercentile(int64_t n, int64_t min_beyond = 10);

/// num / den, with 0 for a zero (or negative) denominator: per-op and
/// per-row ratios over a run that did no such work read 0, not NaN.
double SafeRatio(double num, double den);

/// A half-open time interval [start, end) in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Nanoseconds of `outer` covered by the union of `inner` (each clipped to
/// `outer`). Overlapping inner intervals — children running at the same
/// time on different threads — are counted once.
int64_t CoveredNs(const Interval& outer, std::vector<Interval> inner);

/// Span self time: the span's duration minus the part its children cover.
int64_t SpanSelfNs(const Interval& span,
                   const std::vector<Interval>& children);

/// One child of an operator in a profile tree: its inclusive time and
/// whether it ran on other threads than its parent (exchange producers,
/// parallel Concat branches).
struct ChildTime {
  int64_t inclusive_ns = 0;
  bool other_thread = false;
};

/// Operator self time from inclusive times: the parent's inclusive time
/// minus the children that ran on the parent's own thread. A child on other
/// threads is not part of the parent's inclusive time (the parent only
/// waited for it), so subtracting it would be wrong; the parent's waiting
/// stays in its self time. Never negative.
int64_t OperatorSelfNs(int64_t inclusive_ns,
                       const std::vector<ChildTime>& children);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_STATS_H_
