#include "text/edit_distance.h"

#include <algorithm>
#include <memory>
#include <vector>

namespace ncl::text {

size_t Levenshtein(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;

  std::vector<size_t> row(n + 1);
  for (size_t i = 0; i <= n; ++i) row[i] = i;
  for (size_t j = 1; j <= m; ++j) {
    size_t diag = row[0];
    row[0] = j;
    for (size_t i = 1; i <= n; ++i) {
      size_t substitute = diag + (a[i - 1] != b[j - 1] ? 1 : 0);
      diag = row[i];
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, substitute});
    }
  }
  return row[n];
}

namespace {

/// Strings up to this many bytes (the shorter of the pair) run on a stack
/// row; longer ones (a query token may be up to 256 bytes) take a heap row.
constexpr size_t kStackRowBytes = 63;

}  // namespace

size_t BoundedLevenshtein(std::string_view a, std::string_view b,
                          size_t max_distance) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  if (m - n > max_distance) return max_distance + 1;
  if (n == 0) return m;

  size_t stack_row[kStackRowBytes + 1];
  std::unique_ptr<size_t[]> heap_row;
  size_t* row = stack_row;
  if (n > kStackRowBytes) {
    heap_row = std::make_unique<size_t[]>(n + 1);
    row = heap_row.get();
  }
  for (size_t i = 0; i <= n; ++i) row[i] = i;
  for (size_t j = 1; j <= m; ++j) {
    size_t diag = row[0];
    row[0] = j;
    size_t row_min = row[0];
    for (size_t i = 1; i <= n; ++i) {
      size_t substitute = diag + (a[i - 1] != b[j - 1] ? 1 : 0);
      diag = row[i];
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, substitute});
      row_min = std::min(row_min, row[i]);
    }
    if (row_min > max_distance) return max_distance + 1;
  }
  return std::min(row[n], max_distance + 1);
}

}  // namespace ncl::text
