#include "lib/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  int64_t rank = static_cast<int64_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(values.size()));
  return values[static_cast<size_t>(rank - 1)];
}

int64_t SamplesBeyond(int64_t n, double pct) {
  if (n <= 0) return 0;
  int64_t rank = static_cast<int64_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n);
  return n - rank;
}

bool TailIsSupported(int64_t n, double pct, int64_t min_beyond) {
  return SamplesBeyond(n, pct) >= min_beyond;
}

double HighestSupportedPercentile(int64_t n, int64_t min_beyond) {
  double best = 0;
  for (double pct : {50.0, 90.0, 99.0, 99.9}) {
    if (TailIsSupported(n, pct, min_beyond)) best = pct;
  }
  return best;
}

double SafeRatio(double num, double den) { return den > 0 ? num / den : 0; }

int64_t CoveredNs(const Interval& outer, std::vector<Interval> inner) {
  for (Interval& iv : inner) {
    iv.start = std::max(iv.start, outer.start);
    iv.end = std::min(iv.end, outer.end);
  }
  std::sort(inner.begin(), inner.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t run_start = 0, run_end = 0;
  bool open = false;
  for (const Interval& iv : inner) {
    if (iv.end <= iv.start) continue;
    if (open && iv.start <= run_end) {
      run_end = std::max(run_end, iv.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = iv.start;
    run_end = iv.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

int64_t SpanSelfNs(const Interval& span,
                   const std::vector<Interval>& children) {
  return std::max<int64_t>(
      0, (span.end - span.start) - CoveredNs(span, children));
}

int64_t OperatorSelfNs(int64_t inclusive_ns,
                       const std::vector<ChildTime>& children) {
  int64_t self = inclusive_ns;
  for (const ChildTime& child : children) {
    if (!child.other_thread) self -= child.inclusive_ns;
  }
  return std::max<int64_t>(0, self);
}

}  // namespace perfbench
