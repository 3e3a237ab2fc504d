#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

size_t NearestRankIndex(size_t n, double p) {
  // ceil(p * n) in floating point can land one above the exact rank when
  // p * n is an integer that rounds up (0.5 * 10 = 5.000000001); the small
  // slack keeps exact products exact.
  const double exact = p * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return rank - 1;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRankIndex(sorted.size(), p)];
}

Summary Summarize(std::vector<double> values) {
  Summary summary;
  summary.n = values.size();
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  summary.p50 = Percentile(values, 0.50);
  summary.p99 = Percentile(values, 0.99);
  summary.max = values.back();
  summary.beyond_p99 = values.size() - 1 - NearestRankIndex(values.size(), 0.99);
  return summary;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.50);
}

}  // namespace perfbench
