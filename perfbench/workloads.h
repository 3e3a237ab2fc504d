// The benchmark's workloads and the run that measures one of them.
//
//   coding_backlog  trained hospital-x (scale 0.6), one in-process
//                   LinkingService as `ncl serve-net` configures it (4 shards,
//                   max_batch 8, k = 20, warm cache); closed loop, one caller
//                   per core, uniform seeded-shuffled queries.
//   clinic_router   the same model on 2 replicas (2 shards each) behind a
//                   net::Router over Unix sockets; open loop at a fixed rate
//                   carried by one connection per core, Zipf(1) queries, and
//                   a freshly loaded copy of the weights published to every
//                   replica at a fixed interval.
//   icd10_93k       the paper-scale 93k-concept ICD-10-shaped ontology,
//                   seeded random-init COM-AID, char-ngram candidate index,
//                   no rewriter; in process, closed loop, near-distinct
//                   queries.
//
// An untraced run (trace = false) reports the end-to-end metrics; a traced
// run reports the per-layer ones. Both check every answer.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for saved models and sockets (relative paths keep
  /// socket names short).
  std::string work_dir;
  /// Where the traced run writes its spans (Chrome trace JSON).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< failed + refused + wrong answers
  std::vector<Metric> metrics;
  /// Human-readable lines: counts, sample sizes, failure reasons.
  std::vector<std::string> notes;
  /// Workload parameters and run facts, as (key, JSON literal) pairs.
  std::vector<std::pair<std::string, std::string>> provenance;
};

ncl::Result<RunResult> RunWorkload(const RunOptions& options);

}  // namespace perfbench
