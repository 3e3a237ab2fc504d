// String edit distances.
//
// The online query rewriter (§5 Phase I) maps a query word absent from the
// embedding vocabulary Ω' to a textually similar word with
// BoundedLevenshtein; the exact Levenshtein is its reference.

#pragma once

#include <cstddef>
#include <string_view>

namespace ncl::text {

/// \brief Classic Levenshtein distance (insert/delete/substitute, unit cost).
size_t Levenshtein(std::string_view a, std::string_view b);

/// \brief Levenshtein with early exit: returns max_distance + 1 as soon as
/// the true distance provably exceeds max_distance. Useful for nearest-word
/// scans over a vocabulary: it allocates nothing when the shorter string is
/// at most 63 bytes.
size_t BoundedLevenshtein(std::string_view a, std::string_view b,
                          size_t max_distance);

}  // namespace ncl::text
