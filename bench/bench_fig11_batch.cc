// Batched ED scoring — the Fig. 11 ED phase timed directly on
// ComAidModel::ScoreLogProbFastBatch: one-lane tiles (max_lanes = 1, the
// per-candidate computation) against kDefaultScoreLanes-wide lock-step
// tiles. Lanes are built the way NclLinker builds them: query rewrite,
// Phase-I TopK, then each candidate's shared-word residue (§5). Concept
// encodings are precomputed and scoring runs on one thread (the serving
// configuration: the service parallelises across queries, not within one),
// so the comparison isolates the decoder loop.
//
// Reported per (d, k): mean ED time per query with one-lane tiles ("single")
// and with full tiles ("batched"), and the ed_batch_speedup ratio. Scores are
// bit-identical under any tiling (pinned by tests), so the speedup is pure
// kernel/memory efficiency: the decoder weights — dominated by the V x d
// softmax projection — stream once per decode step for a whole tile of
// candidates instead of once per candidate.
//
// Acceptance (tracked in BENCH_fig11_batch.json): speedup >= 1.5x at
// d = 128, k = 10. Rounds are interleaved and the per-configuration min is
// kept so machine noise hits both tilings equally.

#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "build_name.h"
#include "nn/simd.h"
#include "util/env.h"
#include "util/json_writer.h"
#include "util/stopwatch.h"
#include "util/table_writer.h"

using namespace ncl;
using namespace ncl::bench;

namespace {

/// One query's Phase-II workload: a lane per Phase-I candidate, each
/// decoding the query minus the words it shares with that candidate's
/// canonical description.
struct QueryLanes {
  std::vector<std::vector<text::WordId>> targets;
  std::vector<comaid::BatchScoreLane> lanes;
};

std::vector<QueryLanes> BuildLanes(const Pipeline& pipeline,
                                   const std::vector<linking::EvalQuery>& queries,
                                   size_t k) {
  const comaid::ComAidModel& model = *pipeline.model;
  std::vector<QueryLanes> out(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<std::string> rewritten =
        pipeline.rewriter != nullptr ? pipeline.rewriter->Rewrite(queries[q].tokens)
                                     : queries[q].tokens;
    const std::vector<ontology::ConceptId> candidates =
        pipeline.candidates->TopK(rewritten, k);
    const std::vector<text::WordId> query_ids = model.MapTokens(rewritten);
    QueryLanes& work = out[q];
    work.targets.resize(candidates.size());
    work.lanes.resize(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const auto& description = model.ConceptWords(candidates[i]);
      const std::unordered_set<text::WordId> shared(description.begin(),
                                                    description.end());
      for (text::WordId word : query_ids) {
        if (shared.count(word) == 0) work.targets[i].push_back(word);
      }
      work.lanes[i].concept_id = candidates[i];
      work.lanes[i].target = &work.targets[i];
    }
  }
  return out;
}

/// Mean ED time per query [us] scoring every query's lanes in tiles of
/// `max_lanes`.
double MeanScoreUs(const comaid::ComAidModel& model,
                   std::vector<QueryLanes>& work, size_t max_lanes) {
  double total = 0.0;
  for (QueryLanes& query : work) {
    Stopwatch watch;
    model.ScoreLogProbFastBatch(query.lanes.data(), query.lanes.size(),
                                max_lanes);
    total += watch.ElapsedMicros();
  }
  return total / static_cast<double>(work.size());
}

}  // namespace

int main() {
  const bool full = BenchFullMode();
  const double scale = full ? 0.6 : 0.35;
  std::vector<size_t> dims = {32, 128};
  if (full) dims.push_back(256);
  constexpr double kAcceptanceMinSpeedup = 1.5;
  constexpr size_t kAcceptanceDim = 128;
  constexpr size_t kAcceptanceK = 10;
  constexpr size_t kBatchLanes = comaid::ComAidModel::kDefaultScoreLanes;

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("fig11_batch");
  json.Key("full_mode").Value(full);
  json.Key("scale").Value(scale);
  json.Key("simd").Value(nn::SimdPathName());
  json.Key("build").Value(kBuildName);
  json.Key("hardware_concurrency")
      .Value(static_cast<size_t>(std::thread::hardware_concurrency()));
  json.Key("single_lanes").Value(size_t{1});
  json.Key("batch_lanes").Value(kBatchLanes);
  json.Key("acceptance_min_speedup").Value(kAcceptanceMinSpeedup);
  json.Key("sweeps").BeginArray();

  double acceptance_speedup = 0.0;
  for (size_t d : dims) {
    PipelineConfig config;
    config.corpus = Corpus::kHospitalX;
    config.scale = scale;
    config.dim = d;
    config.train_epochs = 2;  // timings need a model, not a good one
    auto pipeline = BuildPipeline(config);
    const auto& queries = pipeline->eval_groups[0];
    pipeline->model->PrecomputeConceptEncodings();

    TableWriter table("ED with one-lane vs " + std::to_string(kBatchLanes) +
                          "-lane tiles [us/query], d=" + std::to_string(d),
                      {"k", "ED single", "ED batched", "speedup"});
    for (size_t k : {10u, 50u}) {
      std::vector<QueryLanes> work = BuildLanes(*pipeline, queries, k);

      // Warm-up (thread-local scratch), then interleaved rounds keeping the
      // per-tiling min.
      MeanScoreUs(*pipeline->model, work, 1);
      MeanScoreUs(*pipeline->model, work, kBatchLanes);
      const int rounds = full ? 5 : 3;
      double single_us = 0.0, batched_us = 0.0;
      auto keep_min = [](double& slot, double value) {
        slot = slot == 0.0 ? value : std::min(slot, value);
      };
      for (int round = 0; round < rounds; ++round) {
        keep_min(single_us, MeanScoreUs(*pipeline->model, work, 1));
        keep_min(batched_us, MeanScoreUs(*pipeline->model, work, kBatchLanes));
      }
      const double speedup = batched_us > 0.0 ? single_us / batched_us : 0.0;
      if (d == kAcceptanceDim && k == kAcceptanceK) {
        acceptance_speedup = speedup;
      }
      table.AddRow(std::to_string(k), {single_us, batched_us, speedup}, 2);

      json.BeginObject();
      json.Key("dim").Value(d);
      json.Key("k").Value(k);
      json.Key("num_queries").Value(queries.size());
      json.Key("rounds").Value(rounds);
      json.Key("ed_single_us").Value(single_us);
      json.Key("ed_batched_us").Value(batched_us);
      json.Key("ed_batch_speedup").Value(speedup);
      json.EndObject();
    }
    table.Print();
  }
  json.EndArray();

  const bool acceptance_ok = acceptance_speedup >= kAcceptanceMinSpeedup;
  json.Key("acceptance").BeginObject();
  json.Key("dim").Value(kAcceptanceDim);
  json.Key("k").Value(kAcceptanceK);
  json.Key("ed_batch_speedup").Value(acceptance_speedup);
  json.Key("acceptance_ok").Value(acceptance_ok);
  json.EndObject();
  json.EndObject();

  Status status = json.WriteFile("BENCH_fig11_batch.json");
  if (!status.ok()) {
    std::cerr << "failed to write BENCH_fig11_batch.json: " << status.ToString()
              << "\n";
    return 1;
  }
  std::cout << "wrote BENCH_fig11_batch.json (acceptance "
            << (acceptance_ok ? "ok" : "FAILED") << ": d=128 k=10 speedup "
            << acceptance_speedup << "x, min " << kAcceptanceMinSpeedup
            << "x)\n";
  return 0;
}
