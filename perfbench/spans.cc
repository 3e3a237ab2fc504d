#include "spans.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <unordered_map>

namespace perfbench {

const char* LayerName(Layer layer) {
  static constexpr std::array<const char*, kNumLayers> kNames = {
      "client", "net", "serve", "linking", "text", "comaid"};
  return kNames[static_cast<size_t>(layer)];
}

void AppendRequestSpans(const RequestObservation& obs, double rewrite_share,
                        uint64_t* next_id, std::vector<Span>* out) {
  auto add = [&](uint64_t parent, Layer layer, const char* name, double start,
                 double end) {
    Span span;
    span.id = (*next_id)++;
    span.parent = parent;
    span.request = obs.request;
    span.layer = layer;
    span.name = name;
    span.start_us = start;
    span.end_us = end;
    span.thread = obs.thread;
    out->push_back(span);
    return span.id;
  };
  const ncl::serve::RequestTimings& t = obs.timings;
  const uint64_t root =
      add(0, Layer::kClient, "request", obs.due_us, obs.done_us);

  // The serve span: the in-process call itself, or the replica's reported
  // total centred inside the wire round trip.
  uint64_t serve = 0;
  double serve_start = obs.call_start_us;
  if (obs.wire) {
    const uint64_t net = add(root, Layer::kNet, "net.client_link",
                             obs.call_start_us, obs.call_end_us);
    const double rtt = obs.call_end_us - obs.call_start_us;
    serve_start = obs.call_start_us + std::max(0.0, (rtt - t.total_us) / 2.0);
    serve = add(net, Layer::kServe, "serve.replica", serve_start,
                serve_start + t.total_us);
  } else {
    serve = add(root, Layer::kServe, "serve.link", obs.call_start_us,
                obs.call_end_us);
  }

  double at = serve_start + t.queue_wait_us + t.batch_form_us;
  auto stage = [&](Layer layer, const char* name, double us) {
    add(serve, layer, name, at, at + us);
    at += us;
  };
  const double share = std::clamp(rewrite_share, 0.0, 1.0);
  stage(Layer::kLinking, "linking.rewrite", t.candgen_us * share);
  stage(Layer::kText, "text.retrieve", t.candgen_us * (1.0 - share));
  stage(Layer::kComaid, "comaid.ed", t.ed_us);
  stage(Layer::kLinking, "linking.rank", t.rank_us);
}

SelfTimes ComputeSelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, double> child_us;
  child_us.reserve(spans.size());
  for (const Span& span : spans) {
    if (span.parent != 0) child_us[span.parent] += span.end_us - span.start_us;
  }
  SelfTimes result;
  for (const Span& span : spans) {
    const double duration = span.end_us - span.start_us;
    if (span.parent == 0) result.root_us += duration;
    auto it = child_us.find(span.id);
    const double self = duration - (it == child_us.end() ? 0.0 : it->second);
    result.self_us[static_cast<size_t>(span.layer)] += self;
  }
  return result;
}

ncl::Status WriteChromeTrace(const std::vector<Span>& spans,
                             const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return ncl::Status::IOError("cannot open trace file " + path);
  out << std::setprecision(15) << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"cat\":\""
        << LayerName(s.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
        << ",\"args\":{\"request\":" << s.request << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) return ncl::Status::IOError("cannot write trace file " + path);
  return ncl::Status::OK();
}

}  // namespace perfbench
