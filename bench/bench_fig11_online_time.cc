// Figure 11 (Appendix B.1) — online concept linking time analysis.
//
// The online pipeline splits into OR (out-of-vocabulary word replacement),
// CR (candidate retrieval), ED (encode-decode scoring), and RT (ranking).
// Reported: mean per-query time of each part (a, b) as the candidate count
// k grows from 10 to 50, and (c, d) as the query length |q| grows from 1 to
// 6, on both datasets.
//
// Expected shape: total time grows with k, dominated by ED (more candidate
// encode-decode runs); ED and CR grow with |q| (longer decode sequences and
// more postings walked); hospital-x is slower than MIMIC-III because its
// canonical descriptions are longer.
//
// ED runs the serving scorer (cached concept encodings + the lock-step
// batched decoder) on the calling thread; the paper's ten scoring threads
// have no counterpart, so a k above 32 runs its lanes' tiles one after
// another. The whole sweep is also emitted as machine-readable
// BENCH_fig11.json.

#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/json_writer.h"
#include "util/table_writer.h"

using namespace ncl;
using namespace ncl::bench;

namespace {

/// Mean per-query phase timings over a query set.
linking::PhaseTimings MeanTimings(const linking::NclLinker& linker,
                                  const std::vector<linking::EvalQuery>& queries) {
  linking::PhaseTimings total;
  for (const auto& query : queries) {
    linking::PhaseTimings t;
    linker.LinkDetailed(query.tokens, &t);
    total.rewrite_us += t.rewrite_us;
    total.retrieve_us += t.retrieve_us;
    total.score_us += t.score_us;
    total.rank_us += t.rank_us;
  }
  double n = static_cast<double>(queries.size());
  total.rewrite_us /= n;
  total.retrieve_us /= n;
  total.score_us /= n;
  total.rank_us /= n;
  return total;
}

void EmitTimings(JsonWriter& json, const char* key,
                 const linking::PhaseTimings& t) {
  json.Key(key).BeginObject();
  json.Key("rewrite_us").Value(t.rewrite_us);
  json.Key("retrieve_us").Value(t.retrieve_us);
  json.Key("score_us").Value(t.score_us);
  json.Key("rank_us").Value(t.rank_us);
  json.Key("total_us").Value(t.total_us());
  json.Key("qps").Value(t.total_us() > 0 ? 1e6 / t.total_us() : 0.0);
  json.EndObject();
}

}  // namespace

int main() {
  const bool full = BenchFullMode();
  const double scale = full ? 0.8 : 0.35;

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("fig11_online_time");
  json.Key("full_mode").Value(full);
  json.Key("scale").Value(scale);
  json.Key("corpora").BeginArray();

  for (Corpus corpus : {Corpus::kHospitalX, Corpus::kMimicIII}) {
    PipelineConfig config;
    config.corpus = corpus;
    config.scale = scale;
    config.train_epochs = 3;  // timings need a model, not a good one
    auto pipeline = BuildPipeline(config);
    const auto& queries = pipeline->eval_groups[0];
    // Serving configuration: encodings precomputed, so the vs-k sweep below
    // measures steady state rather than cold-cache fills.
    pipeline->model->PrecomputeConceptEncodings();

    json.BeginObject();
    json.Key("corpus").Value(CorpusName(corpus));
    json.Key("dim").Value(config.dim);
    json.Key("num_queries").Value(queries.size());

    // --- (a, b): vary k. --------------------------------------------------
    TableWriter table_k("Fig 11(a/b)  Per-query time vs k [us], " +
                            CorpusName(corpus),
                        {"k", "OR", "CR", "ED", "RT", "total"});
    json.Key("vs_k").BeginArray();
    for (size_t k : {10u, 20u, 30u, 40u, 50u}) {
      linking::NclConfig link_config;
      link_config.k = k;
      linking::NclLinker linker = pipeline->MakeLinker(link_config);
      linking::PhaseTimings t = MeanTimings(linker, queries);
      table_k.AddRow(std::to_string(k),
                     {t.rewrite_us, t.retrieve_us, t.score_us, t.rank_us,
                      t.total_us()},
                     1);

      json.BeginObject();
      json.Key("k").Value(k);
      EmitTimings(json, "timings", t);
      json.EndObject();
    }
    json.EndArray();
    table_k.Print();

    // --- (c, d): vary |q|. -------------------------------------------------
    TableWriter table_q("Fig 11(c/d)  Per-query time vs |q| [us], " +
                            CorpusName(corpus),
                        {"|q|", "OR", "CR", "ED", "RT", "total"});
    json.Key("vs_query_length").BeginArray();
    for (size_t len = 1; len <= 6; ++len) {
      // Truncate/pad real queries to the target length.
      std::vector<linking::EvalQuery> sized;
      for (const auto& query : queries) {
        if (query.tokens.size() < len) continue;
        linking::EvalQuery q = query;
        q.tokens.resize(len);
        sized.push_back(std::move(q));
        if (sized.size() == 40) break;
      }
      if (sized.empty()) continue;
      linking::NclConfig link_config;
      link_config.k = 20;
      linking::NclLinker linker = pipeline->MakeLinker(link_config);
      linking::PhaseTimings t = MeanTimings(linker, sized);
      table_q.AddRow(std::to_string(len),
                     {t.rewrite_us, t.retrieve_us, t.score_us, t.rank_us,
                      t.total_us()},
                     1);
      json.BeginObject();
      json.Key("query_length").Value(len);
      EmitTimings(json, "timings", t);
      json.EndObject();
    }
    json.EndArray();
    table_q.Print();

    // --- Observability overhead (hospital-x): ED phase with the metrics/
    // tracing instrumentation disabled vs the serving default (metrics on,
    // tracing off) vs the serving default with a MetricsSampler attached vs
    // tracing on. Rounds are interleaved and the min mean per configuration
    // is kept, so machine noise hits all four equally.
    // Acceptance: < 2 % ED regression with tracing disabled, sampler running.
    if (corpus == Corpus::kHospitalX) {
      linking::NclConfig link_config;
      link_config.k = 20;
      linking::NclLinker linker = pipeline->MakeLinker(link_config);
      MeanTimings(linker, queries);  // warm up caches

      const int rounds = 5;
      double ed_off = 0.0, ed_metrics = 0.0, ed_sampled = 0.0, ed_trace = 0.0;
      auto keep_min = [](double& slot, double value) {
        slot = slot == 0.0 ? value : std::min(slot, value);
      };
      for (int round = 0; round < rounds; ++round) {
        obs::SetMetricsEnabled(false);
        obs::SetTracingEnabled(false);
        keep_min(ed_off, MeanTimings(linker, queries).score_us);
        obs::SetMetricsEnabled(true);
        keep_min(ed_metrics, MeanTimings(linker, queries).score_us);
        {
          obs::MetricsSampler::Config sampler_config;
          sampler_config.interval_ms = 5;
          obs::MetricsSampler sampler(&obs::MetricsRegistry::Global(),
                                      sampler_config);
          keep_min(ed_sampled, MeanTimings(linker, queries).score_us);
        }
        obs::SetTracingEnabled(true);
        keep_min(ed_trace, MeanTimings(linker, queries).score_us);
        obs::SetTracingEnabled(false);
      }
      double metrics_pct = (ed_metrics - ed_off) / ed_off * 100.0;
      double sampled_pct = (ed_sampled - ed_off) / ed_off * 100.0;
      double trace_pct = (ed_trace - ed_off) / ed_off * 100.0;

      TableWriter overhead("Observability overhead, ED phase [us] (k=20)",
                           {"configuration", "ED", "vs off [%]"});
      overhead.AddRow("instrumentation disabled", {ed_off, 0.0}, 1);
      overhead.AddRow("metrics on, tracing off (serving)",
                      {ed_metrics, metrics_pct}, 1);
      overhead.AddRow("metrics on + 5ms sampler (monitored serving)",
                      {ed_sampled, sampled_pct}, 1);
      overhead.AddRow("metrics on, tracing on", {ed_trace, trace_pct}, 1);
      overhead.Print();

      json.Key("obs_overhead").BeginObject();
      json.Key("k").Value(20);
      json.Key("rounds").Value(rounds);
      json.Key("ed_us_obs_disabled").Value(ed_off);
      json.Key("ed_us_metrics_on_tracing_off").Value(ed_metrics);
      json.Key("ed_us_metrics_on_sampler_running").Value(ed_sampled);
      json.Key("ed_us_tracing_on").Value(ed_trace);
      json.Key("overhead_pct_tracing_disabled").Value(metrics_pct);
      json.Key("overhead_pct_sampler_running").Value(sampled_pct);
      json.Key("overhead_pct_tracing_on").Value(trace_pct);
      json.EndObject();
    }
    json.EndObject();
  }

  // The whole sweep ran instrumented: snapshot the metrics registry next to
  // the timing JSON (the machine-readable face of `ncl_cli --metrics-json`).
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  std::cout << "\n" << snapshot.RenderTables() << "\n";
  Status metrics_status = snapshot.WriteJsonFile("BENCH_fig11_metrics.json");
  if (!metrics_status.ok()) {
    std::cerr << "failed to write BENCH_fig11_metrics.json: "
              << metrics_status.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote BENCH_fig11_metrics.json\n";

  json.EndArray();
  json.Key("metrics_snapshot").Value("BENCH_fig11_metrics.json");
  json.EndObject();
  Status status = json.WriteFile("BENCH_fig11.json");
  if (!status.ok()) {
    std::cerr << "failed to write BENCH_fig11.json: " << status.ToString()
              << "\n";
    return 1;
  }
  std::cout << "wrote BENCH_fig11.json\n";
  return 0;
}
