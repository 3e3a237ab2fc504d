// Correctness oracle for served rankings.
//
// Every response is shape-checked: at most k candidates, all distinct and
// valid, log-probabilities finite and sorted best first. After the timed
// phase a seeded sample of responses is re-derived through single-query
// NclLinker::LinkDetailed on the snapshot that served it; the served ranking
// must equal the reference exactly (same concepts, same order, bit-identical
// scores). Both checks return an empty string when the ranking passes and a
// reason otherwise.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linking/ncl_linker.h"

namespace perfbench {

std::string CheckShape(const std::vector<ncl::linking::ScoredCandidate>& ranking,
                       size_t k);

std::string CompareExact(
    const std::vector<ncl::linking::ScoredCandidate>& served,
    const std::vector<ncl::linking::ScoredCandidate>& reference);

}  // namespace perfbench
