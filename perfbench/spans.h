// Benchmark-side request spans for the traced run.
//
// The traced run records spans from the benchmark's own code around the
// public calls into each layer; nothing inside the library is instrumented.
// A request's spans share its id:
//
//   client  [due, done]            the generator's view (root)
//   net     [call start, call end] net::Client::Link, wire workloads only
//   serve   LinkingService::Link wall time in process; over the wire, the
//           replica's returned RequestTimings::total_us
//   linking rewrite share of RequestTimings::candgen_us, plus rank_us
//   text    retrieval share of RequestTimings::candgen_us
//   comaid  RequestTimings::ed_us
//
// Layers below serve are only reachable through the service, so their spans
// are synthesised from the stage timings the service returns, laid out in
// stage order inside the serve span. RequestTimings folds rewrite and
// retrieval into one candgen figure; the caller splits it with the rewrite
// share measured by timing the linker directly on the same workload.
//
// Spans live in per-thread buffers during the run and are written once at
// the end as Chrome trace-event JSON.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/slo.h"
#include "util/status.h"

namespace perfbench {

enum class Layer { kClient = 0, kNet, kServe, kLinking, kText, kComaid };
inline constexpr size_t kNumLayers = 6;
const char* LayerName(Layer layer);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for the root
  uint64_t request = 0;
  Layer layer = Layer::kClient;
  const char* name = "";
  double start_us = 0.0;  ///< relative to the run's epoch
  double end_us = 0.0;
  uint32_t thread = 0;
};

/// Where one request's time went, as the generator observed it.
struct RequestObservation {
  uint64_t request = 0;
  uint32_t thread = 0;
  double due_us = 0.0;         ///< when the request fell due
  double call_start_us = 0.0;  ///< entry into Client::Link / Service::Link
  double call_end_us = 0.0;
  double done_us = 0.0;
  bool wire = false;
  ncl::serve::RequestTimings timings;
};

/// Append the request's spans to `out` (ids taken from `*next_id`).
/// `rewrite_share` in [0, 1] splits candgen_us between linking and text.
void AppendRequestSpans(const RequestObservation& obs, double rewrite_share,
                        uint64_t* next_id, std::vector<Span>* out);

/// Per-layer self time: a span's duration minus its children's durations,
/// summed per layer. The client layer's self time is the residual — time
/// the trace attributes to no layer.
struct SelfTimes {
  double root_us = 0.0;  ///< summed root (client) span durations
  std::array<double, kNumLayers> self_us{};
  double share(Layer layer) const {
    return root_us > 0.0 ? self_us[static_cast<size_t>(layer)] / root_us : 0.0;
  }
};
SelfTimes ComputeSelfTimes(const std::vector<Span>& spans);

/// Write `spans` as Chrome trace-event JSON ("X" events, one tid per
/// generator thread, the request id in args).
ncl::Status WriteChromeTrace(const std::vector<Span>& spans,
                             const std::string& path);

}  // namespace perfbench
