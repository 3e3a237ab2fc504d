// ncl::serve load generator — closed-loop throughput/latency sweep of the
// LinkingService against a serialized per-query baseline on one thread.
//
// Three measurements, emitted as BENCH_serve.json:
//
//   * serial: one caller looping NclLinker::LinkDetailed on one thread —
//     the pre-serve deployment model — in whole passes over the queries
//     for at least 0.5 s.
//   * service: the micro-batched LinkingService with T single-threaded
//     shards, swept over closed-loop client counts. Parallelism across
//     queries comes from the shards, so throughput should clear 2x the
//     serial baseline once clients >= shards (the acceptance bar). The bar
//     presumes real cores: on a machine with fewer than T hardware threads
//     the sweep degenerates to the single-shard rate, so the JSON records
//     hardware_concurrency and the console flags it.
//     Shed rate is 0 below saturation regardless.
//   * overload: ~4x more closed-loop clients than shards against a small
//     shed-oldest queue — queue depth stays bounded, so the p99 of served
//     requests stays bounded too (the metric reported is e2e: queue wait +
//     service), while the shed rate absorbs the excess. The SLO watchdog
//     runs on this level; its window/violation report lands in the JSON.
//   * two_tenant: one multi-tenant service hosting the model under two
//     ontology ids ("icd9"/"icd10"); even clients drive one tenant, odd
//     clients the other, on the same shared schedule. Per-tenant
//     throughput and p99 land in the JSON — the number to watch is the
//     spread between the tenants, which should be noise.
//
// The whole sweep runs under a MetricsSampler (TIMESERIES_serve.json), a
// short traced burst exports TRACE_serve.json (request flow lanes for
// Perfetto), and a microbench pins the sampler's hot-path overhead: a tight
// Histogram::Record loop with the sampler off vs. on must agree within 2%
// ("sampler_overhead" in the JSON; CI smoke-asserts it).
//
// Quick defaults run in seconds; NCL_BENCH_FULL=1 enlarges the sweep.

#include <algorithm>
#include <atomic>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "load_gen.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "serve/linking_service.h"
#include "serve/model_snapshot.h"
#include "util/env.h"
#include "util/json_writer.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

using namespace ncl;
using namespace ncl::bench;

namespace {

struct LevelResult {
  size_t clients = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double shed_rate = 0.0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t rejected = 0;
};

/// Closed loop against an in-process `service`, via the shared generator
/// (bench_net drives the identical schedule over the wire).
LevelResult RunLevel(serve::LinkingService& service,
                     const std::vector<linking::EvalQuery>& queries,
                     size_t clients, size_t per_client) {
  LoadLevelResult load = RunClosedLoopLevel(
      queries, clients, per_client, /*seed=*/0,
      [&](size_t, size_t, const linking::EvalQuery& query) {
        return service.Link(query.tokens).status.ok();
      });

  serve::ServeStats stats = service.stats();
  LevelResult result;
  result.clients = clients;
  result.completed = stats.completed;
  result.shed = stats.shed;
  result.rejected = stats.rejected;
  result.qps = load.qps;
  result.p50_us = load.p50_us;
  result.p99_us = load.p99_us;
  const uint64_t total = stats.completed + stats.shed + stats.rejected +
                         stats.deadline_exceeded;
  result.shed_rate =
      total == 0 ? 0.0
                 : static_cast<double>(stats.shed + stats.rejected) /
                       static_cast<double>(total);
  return result;
}

void EmitLevel(JsonWriter& json, const LevelResult& r) {
  json.Key("clients").Value(static_cast<uint64_t>(r.clients));
  json.Key("qps").Value(r.qps);
  json.Key("p50_us").Value(r.p50_us);
  json.Key("p99_us").Value(r.p99_us);
  json.Key("shed_rate").Value(r.shed_rate);
  json.Key("completed").Value(r.completed);
  json.Key("shed").Value(r.shed);
  json.Key("rejected").Value(r.rejected);
}

void PrintLevel(const char* tag, const LevelResult& r) {
  std::cout << "  " << tag << " clients=" << r.clients << "  qps="
            << FormatDouble(r.qps, 1) << "  p50=" << FormatDouble(r.p50_us, 0)
            << "us  p99=" << FormatDouble(r.p99_us, 0)
            << "us  shed_rate=" << FormatDouble(r.shed_rate, 3) << "\n";
}

/// Sampler hot-path overhead: a tight Histogram::Record loop with no
/// sampler vs. a MetricsSampler snapshotting concurrently. Rounds
/// interleave and keep the per-mode minimum (the noise floor), the same
/// protocol as bench_fig11's obs-overhead measurement; the wait-free
/// contract says the writer must not slow down while the sampler reads.
/// The sampled rounds run at a 5 ms interval — 40x the production default,
/// and each round spans longer than the interval so every round absorbs
/// snapshots. Tighter intervals measure scheduler preemption on
/// single-core hosts (the sampler thread stealing the core), not hot-path
/// interference, which is the contract under test.
struct SamplerOverhead {
  double base_ns = 0.0;
  double sampled_ns = 0.0;
  double pct = 0.0;
  bool ok = false;
};

SamplerOverhead MeasureSamplerOverhead() {
  obs::Histogram* probe =
      obs::MetricsRegistry::Global().GetHistogram("ncl.bench.sampler_probe");
  constexpr size_t kIters = 600000;  // ~8ms/round: longer than the interval
  constexpr size_t kRounds = 5;
  auto run_once = [&] {
    Stopwatch watch;
    for (size_t i = 0; i < kIters; ++i) probe->Record(i & 1023);
    return watch.ElapsedMicros() * 1e3 / static_cast<double>(kIters);
  };
  run_once();  // warm caches and the registry entry
  double best_base = 1e300;
  double best_sampled = 1e300;
  for (size_t r = 0; r < kRounds; ++r) {
    best_base = std::min(best_base, run_once());
    obs::MetricsSampler::Config config;
    config.interval_ms = 5;
    obs::MetricsSampler sampler(&obs::MetricsRegistry::Global(), config);
    best_sampled = std::min(best_sampled, run_once());
  }
  SamplerOverhead result;
  result.base_ns = best_base;
  result.sampled_ns = best_sampled;
  result.pct =
      best_base > 0.0 ? 100.0 * (best_sampled - best_base) / best_base : 0.0;
  // On a single-core host the sampled rounds measure time-slicing against
  // the sampler thread (any background thread costs the same), not hot-path
  // interference; the bar only means something when the sampler can run on
  // its own core.
  result.ok = result.pct < 2.0 || std::thread::hardware_concurrency() < 2;
  return result;
}

}  // namespace

int main() {
  const bool full = BenchFullMode();
  const size_t shards = static_cast<size_t>(GetEnvInt("NCL_SERVE_SHARDS", full ? 8 : 4));
  const size_t per_client = static_cast<size_t>(
      GetEnvInt("NCL_SERVE_PER_CLIENT", full ? 200 : 40));

  PipelineConfig config;
  config.scale = full ? 0.6 : 0.35;
  config.dim = 32;
  config.num_query_groups = 1;
  config.queries_per_group = full ? 200 : 80;
  std::cout << "building pipeline (scale=" << config.scale << ", dim="
            << config.dim << ")...\n";
  std::unique_ptr<Pipeline> pipeline = BuildPipeline(config);
  const std::vector<linking::EvalQuery>& queries = pipeline->eval_groups[0];

  // The whole sweep runs under the sampler; the 50 ms interval catches each
  // level's rise and fall in the windowed series.
  obs::MetricsSampler::Config sampler_config;
  sampler_config.interval_ms = 50;
  obs::MetricsSampler sampler(&obs::MetricsRegistry::Global(), sampler_config);

  // --- Baseline: serialized per-query loop on one thread, in whole passes
  // over the queries until kSerialWindowSeconds have passed. A fixed two
  // passes (160 calls, ~20 ms) let serial.qps, and so speedup_vs_serial,
  // swing ~10% between back-to-back runs.
  constexpr double kSerialWindowSeconds = 0.5;
  linking::NclLinker serial_linker = pipeline->MakeLinker();
  pipeline->model->PrecomputeConceptEncodings();  // warm, as serving would be
  Stopwatch serial_watch;
  size_t serial_queries = 0;
  size_t serial_passes = 0;
  do {
    for (const auto& query : queries) {
      serial_linker.LinkDetailed(query.tokens);
      ++serial_queries;
    }
    ++serial_passes;
  } while (serial_watch.ElapsedSeconds() < kSerialWindowSeconds);
  const double serial_elapsed = serial_watch.ElapsedSeconds();
  const double serial_qps = static_cast<double>(serial_queries) / serial_elapsed;
  std::cout << "serial baseline: " << FormatDouble(serial_qps, 1)
            << " qps over " << serial_queries << " queries in "
            << serial_passes << " passes (threads=1)\n";

  // --- Service: T single-threaded shards, snapshot shared by every level.
  // The pipeline outlives every snapshot, so alias into it without
  // transferring ownership.
  auto model = std::shared_ptr<const comaid::ComAidModel>(
      pipeline->model.get(), [](const comaid::ComAidModel*) {});
  auto candidates = std::shared_ptr<const linking::CandidateGenerator>(
      pipeline->candidates.get(), [](const linking::CandidateGenerator*) {});
  auto rewriter = std::shared_ptr<const linking::QueryRewriter>(
      pipeline->rewriter.get(), [](const linking::QueryRewriter*) {});

  std::vector<size_t> client_sweep = {1, shards / 2, shards, 2 * shards};
  client_sweep.erase(std::unique(client_sweep.begin(), client_sweep.end()),
                     client_sweep.end());
  std::vector<LevelResult> service_levels;
  double best_qps = 0.0;
  for (size_t clients : client_sweep) {
    if (clients == 0) continue;
    serve::TenantRegistry registry;
    registry.Publish(serve::kDefaultTenant, std::make_shared<serve::NclSnapshot>(
        model, candidates, rewriter));
    serve::ServeConfig serve_config;
    serve_config.num_shards = shards;
    serve_config.max_batch = 2 * shards;
    serve_config.queue_capacity = 4 * shards;
    serve_config.policy = serve::OverloadPolicy::kBlock;
    serve::LinkingService service(&registry, serve_config);
    LevelResult level = RunLevel(service, queries, clients, per_client);
    service.Drain();
    PrintLevel("service", level);
    service_levels.push_back(level);
    best_qps = std::max(best_qps, level.qps);
  }

  // --- Overload: 4x more closed-loop clients than shards against a small
  // shed-oldest queue.
  LevelResult overload;
  serve::SloWindowStats slo_stats;
  std::vector<serve::SlowRequest> slowest;
  const size_t overload_clients = 4 * shards;
  const size_t overload_capacity = 2 * shards;
  {
    serve::TenantRegistry registry;
    registry.Publish(serve::kDefaultTenant, std::make_shared<serve::NclSnapshot>(
        model, candidates, rewriter));
    serve::ServeConfig serve_config;
    serve_config.num_shards = shards;
    serve_config.max_batch = 2 * shards;
    serve_config.queue_capacity = overload_capacity;
    serve_config.policy = serve::OverloadPolicy::kShedOldest;
    // The watchdog rides the overload run — the level designed to stress
    // the rolling window (and, on a wedged build, the stall detector).
    serve_config.slo.enabled = true;
    serve_config.slo.check_interval_ms = 50;
    serve_config.slo.slow_log_n = 4;
    serve::LinkingService service(&registry, serve_config);
    overload = RunLevel(service, queries, overload_clients, per_client);
    service.Drain();
    slo_stats = service.slo_watchdog()->window();
    slowest = service.slow_requests();
    PrintLevel("overload", overload);
    std::cout << "  slo windows=" << slo_stats.windows_evaluated
              << "  p99_us=" << FormatDouble(slo_stats.window_p99_us, 0)
              << "  latency_violations=" << slo_stats.latency_violations
              << "  stalls=" << slo_stats.stalls
              << "  slow_logged=" << slowest.size() << "\n";
  }

  // --- Two-tenant mixed load: the same model published under two ontology
  // ids behind one shared queue and shard pool; clients split between the
  // tenants by parity. The shared generator merges every client into one
  // distribution, so per-tenant latencies are timed here in the callback.
  struct TenantLevel {
    uint64_t ok = 0;
    uint64_t failed = 0;
    double qps = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
  };
  const char* kTenantNames[2] = {"icd9", "icd10"};
  TenantLevel tenant_levels[2];
  LoadLevelResult mixed;
  const size_t mixed_clients = std::max<size_t>(2, shards);
  {
    serve::TenantRegistry registry;
    for (const char* tenant : kTenantNames) {
      registry.Publish(tenant, std::make_shared<serve::NclSnapshot>(
                                   model, candidates, rewriter));
    }
    serve::ServeConfig serve_config;
    serve_config.num_shards = shards;
    serve_config.max_batch = 2 * shards;
    serve_config.queue_capacity = 4 * shards;
    serve_config.policy = serve::OverloadPolicy::kBlock;
    serve_config.tenant_quota = 2 * shards;
    serve::LinkingService service(&registry, serve_config);
    std::vector<std::vector<double>> latencies(mixed_clients);
    for (auto& lat : latencies) lat.reserve(per_client);
    mixed = RunClosedLoopLevel(
        queries, mixed_clients, per_client, /*seed=*/0,
        [&](size_t c, size_t, const linking::EvalQuery& query) {
          serve::RequestOptions options;
          options.ontology = kTenantNames[c % 2];
          Stopwatch watch;
          const bool ok = service.Link(query.tokens, options).status.ok();
          if (ok) latencies[c].push_back(watch.ElapsedMicros());
          return ok;
        });
    service.Drain();
    for (size_t t = 0; t < 2; ++t) {
      std::vector<double> merged;
      uint64_t issued = 0;
      for (size_t c = t; c < mixed_clients; c += 2) {
        merged.insert(merged.end(), latencies[c].begin(), latencies[c].end());
        issued += per_client;
      }
      std::sort(merged.begin(), merged.end());
      TenantLevel& level = tenant_levels[t];
      level.ok = merged.size();
      level.failed = issued - merged.size();
      level.qps = mixed.elapsed_s > 0.0
                      ? static_cast<double>(level.ok) / mixed.elapsed_s
                      : 0.0;
      level.p50_us = PercentileSorted(merged, 0.50);
      level.p99_us = PercentileSorted(merged, 0.99);
      std::cout << "  two_tenant[" << kTenantNames[t] << "] qps="
                << FormatDouble(level.qps, 1) << "  p50="
                << FormatDouble(level.p50_us, 0) << "us  p99="
                << FormatDouble(level.p99_us, 0) << "us  ok=" << level.ok
                << "  failed=" << level.failed << "\n";
    }
  }

  // --- Traced burst: a short run with span recording on, exported as
  // request-correlated flow lanes for Perfetto.
  {
    serve::TenantRegistry registry;
    registry.Publish(serve::kDefaultTenant, std::make_shared<serve::NclSnapshot>(
        model, candidates, rewriter));
    serve::ServeConfig serve_config;
    serve_config.num_shards = shards;
    serve_config.max_batch = 2 * shards;
    serve::LinkingService service(&registry, serve_config);
    obs::SetTracingEnabled(true);
    RunLevel(service, queries, shards, std::min<size_t>(per_client, 10));
    service.Drain();
    obs::SetTracingEnabled(false);
    Status trace_status = obs::WriteChromeTrace("TRACE_serve.json");
    if (!trace_status.ok()) {
      std::cerr << "failed to write TRACE_serve.json: "
                << trace_status.ToString() << "\n";
      return 1;
    }
    std::cout << "wrote TRACE_serve.json (request flow lanes)\n";
  }

  // Flush the sampler's tail window and export the sweep's time series,
  // then stop it so the overhead microbench's base rounds run sampler-free.
  sampler.SampleNow();
  sampler.Stop();
  Status timeseries_status = sampler.WriteJson("TIMESERIES_serve.json");
  if (!timeseries_status.ok()) {
    std::cerr << "failed to write TIMESERIES_serve.json: "
              << timeseries_status.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote TIMESERIES_serve.json (" << sampler.sample_count()
            << " samples)\n";

  const SamplerOverhead overhead = MeasureSamplerOverhead();
  std::cout << "sampler overhead: base=" << FormatDouble(overhead.base_ns, 2)
            << "ns/record  sampled=" << FormatDouble(overhead.sampled_ns, 2)
            << "ns/record  (" << FormatDouble(overhead.pct, 2)
            << "%, bar < 2%)" << (overhead.ok ? "" : "  ** OVER BAR **");
  if (overhead.pct >= 2.0 && overhead.ok) {
    std::cout << "  [single-core host: time-slicing, bar waived]";
  }
  std::cout << "\n";

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const double speedup = serial_qps > 0.0 ? best_qps / serial_qps : 0.0;
  std::cout << "speedup vs serial loop: " << FormatDouble(speedup, 2)
            << "x (bar: >= 2x on >= " << shards << " cores; this host has "
            << hardware_threads << ")\n";
  if (hardware_threads < 2) {
    std::cout << "note: single-core host — cross-query parallelism cannot "
                 "materialise; the speedup shown is what micro-batching "
                 "alone buys.\n";
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("config").BeginObject();
  json.Key("shards").Value(static_cast<uint64_t>(shards));
  json.Key("per_client").Value(static_cast<uint64_t>(per_client));
  json.Key("scale").Value(config.scale);
  json.Key("dim").Value(static_cast<uint64_t>(config.dim));
  json.Key("queries").Value(static_cast<uint64_t>(queries.size()));
  json.Key("hardware_concurrency").Value(static_cast<uint64_t>(hardware_threads));
  json.Key("full").Value(full);
  json.EndObject();
  json.Key("serial").BeginObject();
  json.Key("qps").Value(serial_qps);
  json.Key("threads").Value(uint64_t{1});
  json.Key("queries").Value(static_cast<uint64_t>(serial_queries));
  json.Key("window_s").Value(kSerialWindowSeconds);
  json.Key("passes").Value(static_cast<uint64_t>(serial_passes));
  json.EndObject();
  json.Key("service").BeginArray();
  for (const LevelResult& level : service_levels) {
    json.BeginObject();
    EmitLevel(json, level);
    json.EndObject();
  }
  json.EndArray();
  json.Key("overload").BeginObject();
  json.Key("queue_capacity").Value(static_cast<uint64_t>(overload_capacity));
  json.Key("policy").Value("shed_oldest");
  EmitLevel(json, overload);
  json.EndObject();
  json.Key("slo").BeginObject();
  json.Key("windows_evaluated").Value(slo_stats.windows_evaluated);
  json.Key("window_requests").Value(slo_stats.window_requests);
  json.Key("window_p50_us").Value(slo_stats.window_p50_us);
  json.Key("window_p99_us").Value(slo_stats.window_p99_us);
  json.Key("error_rate_pct").Value(slo_stats.error_rate_pct);
  json.Key("budget_remaining_pct").Value(slo_stats.budget_remaining_pct);
  json.Key("latency_violations").Value(slo_stats.latency_violations);
  json.Key("error_budget_breaches").Value(slo_stats.error_budget_breaches);
  json.Key("stalls").Value(slo_stats.stalls);
  json.Key("slow_requests").BeginArray();
  for (const serve::SlowRequest& r : slowest) {
    json.BeginObject();
    json.Key("request_id").Value(r.request_id);
    json.Key("total_us").Value(r.total_us);
    json.Key("queue_wait_us").Value(r.timings.queue_wait_us);
    json.Key("batch_form_us").Value(r.timings.batch_form_us);
    json.Key("candgen_us").Value(r.timings.candgen_us);
    json.Key("ed_us").Value(r.timings.ed_us);
    json.Key("rank_us").Value(r.timings.rank_us);
    json.Key("query").Value(r.query);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.Key("two_tenant").BeginObject();
  json.Key("clients").Value(static_cast<uint64_t>(mixed_clients));
  json.Key("qps").Value(mixed.qps);
  json.Key("p50_us").Value(mixed.p50_us);
  json.Key("p99_us").Value(mixed.p99_us);
  json.Key("tenants").BeginObject();
  for (size_t t = 0; t < 2; ++t) {
    json.Key(kTenantNames[t]).BeginObject();
    json.Key("ok").Value(tenant_levels[t].ok);
    json.Key("failed").Value(tenant_levels[t].failed);
    json.Key("qps").Value(tenant_levels[t].qps);
    json.Key("p50_us").Value(tenant_levels[t].p50_us);
    json.Key("p99_us").Value(tenant_levels[t].p99_us);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  json.Key("sampler_overhead").BeginObject();
  json.Key("base_ns_per_record").Value(overhead.base_ns);
  json.Key("sampled_ns_per_record").Value(overhead.sampled_ns);
  json.Key("overhead_pct").Value(overhead.pct);
  json.Key("ok").Value(overhead.ok);
  json.EndObject();
  json.Key("speedup_vs_serial").Value(speedup);
  json.EndObject();
  Status status = json.WriteFile("BENCH_serve.json");
  if (!status.ok()) {
    std::cerr << "failed to write BENCH_serve.json: " << status.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote BENCH_serve.json\n";
  return 0;
}
