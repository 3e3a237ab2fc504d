// Sample statistics for the benchmark: nearest-rank percentiles.
//
// The nearest-rank p-th percentile of n ascending values is the value at
// 1-based rank ceil(p * n). For n = 160 and p = 0.99 that is rank 159 (index
// 158); an interpolation-free floor(p * (n - 1)) index would read one rank
// lower. A summary also states n and how many samples rank beyond p99, so a
// reader can tell whether the p99 rests on enough samples (>= 10).

#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// 0-based index of the nearest-rank p-th percentile of n samples.
/// Requires n > 0 and 0 < p <= 1.
size_t NearestRankIndex(size_t n, double p);

/// Nearest-rank percentile of `sorted` (ascending); 0 when empty.
double Percentile(const std::vector<double>& sorted, double p);

struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  /// Samples ranked after the p99 rank (n - ceil(0.99 n)).
  size_t beyond_p99 = 0;
};

/// Summarise `values` (taken by value: sorted in place).
Summary Summarize(std::vector<double> values);

/// Nearest-rank median (the lower middle value for even n).
double Median(std::vector<double> values);

}  // namespace perfbench
