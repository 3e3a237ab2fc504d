// ncl::obs tracing — RAII scoped spans recorded into thread-local ring
// buffers, exportable as Chrome trace-event JSON (loadable in Perfetto:
// open https://ui.perfetto.dev and drag the file in, or chrome://tracing).
//
//   ... NclLinker::LinkBatchDetailed(...) const {
//     NCL_TRACE_SPAN("ncl.link_batch");
//     ...
//   }
//
// Tracing is off by default; the disabled span path is a single relaxed
// load + branch (no clock read, no buffer touch), so spans can stay in
// serving hot loops permanently — the Fig. 11 overhead bench pins the cost.
// When enabled, a span costs two steady_clock reads plus one ring-buffer
// write under an uncontended per-thread mutex.
//
// Span names must be string literals (or otherwise outlive the recorder):
// the ring buffer stores the pointer, not a copy.
//
// Each thread owns a fixed-capacity ring; once full, the oldest events are
// overwritten (the export reports how many were dropped). Buffers survive
// thread exit so short-lived pool workers still appear in the export.
//
// Flow correlation: a span may carry two optional u64 fields, `id` and
// `parent`. `id` marks a flow *departing* this span (the export emits a
// Chrome flow-start event, ph:"s"); `parent` marks a flow *arriving* here
// (ph:"f" with bp:"e", binding to this span). Giving each hop of a request
// (admission -> dispatch -> shard scoring) a span that finishes the previous
// hop's flow and starts the next renders the request as one connected lane
// across threads in Perfetto — see LinkingService for the producer side and
// RequestFlowId for the id scheme.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace ncl::obs {

namespace internal {
extern std::atomic<bool> g_tracing_enabled;

/// Nanoseconds since process start (steady clock), so exported timestamps
/// start near zero.
uint64_t TraceNowNanos();

/// Append one complete ("ph":"X") event to the calling thread's ring.
/// `id` != 0 additionally exports a flow-start (ph:"s") departing the span;
/// `parent` != 0 exports a flow-finish (ph:"f", bp:"e") arriving at it.
void RecordSpan(const char* name, uint64_t start_ns, uint64_t dur_ns,
                uint64_t id = 0, uint64_t parent = 0);
}  // namespace internal

/// True when span recording is active. Off by default.
inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

void SetTracingEnabled(bool enabled);

/// Ring capacity (events per thread) for buffers created *after* the call;
/// existing thread buffers keep their size. Default 65536.
void SetTraceRingCapacity(size_t capacity);

/// Total events overwritten because rings were full (all threads).
uint64_t TraceDroppedEvents();

/// Drop all recorded events (capacities and thread registrations survive).
void ClearTrace();

/// The recorded spans as a Chrome trace-event JSON document
/// ({"traceEvents":[...]}), events sorted by start time.
std::string ChromeTraceJson();

/// Write ChromeTraceJson() to `path`, newline-terminated.
Status WriteChromeTrace(const std::string& path);

/// \brief RAII span: measures construction → destruction when tracing is
/// enabled at construction time.
///
/// The two-argument form correlates the span into a request flow: `id`
/// starts a flow edge departing this span, `parent` finishes one arriving at
/// it (either may be 0 = none). Disabled-tracing cost is identical to the
/// plain form: one relaxed load and a branch.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t id = 0, uint64_t parent = 0)
      : name_(TracingEnabled() ? name : nullptr),
        start_ns_(name_ != nullptr ? internal::TraceNowNanos() : 0),
        id_(id),
        parent_(parent) {}

  ~ScopedSpan() {
    if (name_ != nullptr) {
      internal::RecordSpan(name_, start_ns_,
                           internal::TraceNowNanos() - start_ns_, id_,
                           parent_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t start_ns_;
  uint64_t id_;
  uint64_t parent_;
};

/// Flow-edge id for hop `hop` (0-based) of request `request_id`. Requests
/// traverse up to four hops (admit -> dispatch -> shard -> linker), so edge
/// ids pack as request_id * 4 + hop + 1; the + 1 keeps 0 free as "no flow".
inline uint64_t RequestFlowId(uint64_t request_id, uint64_t hop) {
  return request_id * 4 + hop + 1;
}

}  // namespace ncl::obs

#define NCL_TRACE_CONCAT_IMPL(a, b) a##b
#define NCL_TRACE_CONCAT(a, b) NCL_TRACE_CONCAT_IMPL(a, b)

/// Open a scoped span covering the rest of the enclosing block.
#define NCL_TRACE_SPAN(name) \
  ::ncl::obs::ScopedSpan NCL_TRACE_CONCAT(ncl_trace_span_, __COUNTER__)(name)

/// Flow-correlated span: starts flow `id` and finishes flow `parent`
/// (either may be 0 = none). See ScopedSpan.
#define NCL_TRACE_SPAN_FLOW(name, id, parent)                            \
  ::ncl::obs::ScopedSpan NCL_TRACE_CONCAT(ncl_trace_span_, __COUNTER__)( \
      name, id, parent)
