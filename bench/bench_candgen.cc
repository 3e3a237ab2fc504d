// Candidate-generation scaling bench — the index's pruned char-ngram
// analyzer vs its exhaustive token analyzer, swept over corpus size.
//
// For each corpus size (1k / 10k / 17k-ICD-9 / 93k-ICD-10 — the last two
// are the paper-scale presets) the bench synthesizes an ontology, builds
// both CandidateGenerator analyzers over the same concept documents, generates
// corrupted labeled queries (no query rewriting: both paths face the same
// raw discrepancy phenomena), and measures per query:
//
//   * recall@k: whether the gold concept survives Phase I (the coverage
//     metric of Fig. 5(a));
//   * candidate-generation latency (p50/p99 over the query set);
//   * overlap@k between the two paths' candidate sets.
//
// Emits BENCH_candgen.json. Acceptance (evaluated at the largest corpus
// run): the pruned path keeps >= 0.95 of the exhaustive path's recall@k
// while cutting p50 latency by >= 5x. NCL_CANDGEN_SMOKE=1 runs the small
// corpus only and exits non-zero if the recall bar fails — the CI guard.
//
// Env knobs: NCL_CANDGEN_SMOKE, NCL_CANDGEN_QUERIES, NCL_CANDGEN_K,
// NCL_BENCH_FULL; pruning overrides NCL_CANDGEN_M (max accumulators),
// NCL_CANDGEN_BUDGET (per-term posting budget), NCL_CANDGEN_EPSILON_PCT
// (early-stop epsilon, percent) — -1 keeps the NgramIndexConfig default.

#include <algorithm>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "datagen/ontology_synthesizer.h"
#include "datagen/query_generator.h"
#include "linking/candidate_generator.h"
#include "load_gen.h"
#include "text/ngram_index.h"
#include "util/env.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

using namespace ncl;

namespace {

struct CorpusSpec {
  std::string name;
  datagen::OntologySynthesizerConfig config;
};

struct PathResult {
  double recall = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double build_s = 0.0;
};

struct SizeResult {
  std::string name;
  size_t num_concepts = 0;
  size_t ngram_terms = 0;
  size_t ngram_postings = 0;
  PathResult exhaustive;
  PathResult pruned;
  double relative_recall = 0.0;
  double overlap = 0.0;
  double speedup_p50 = 0.0;
};

/// Measures one retrieval path over the query set; fills recall/latency and
/// returns the per-query candidate sets for the overlap computation.
PathResult MeasurePath(const linking::CandidateGenerator& generator,
                       const std::vector<datagen::LabeledQuery>& queries,
                       size_t k,
                       std::vector<std::vector<ontology::ConceptId>>* sets) {
  PathResult result;
  sets->clear();
  sets->reserve(queries.size());
  // Warm up allocator/caches on a few queries before timing.
  for (size_t i = 0; i < std::min<size_t>(queries.size(), 5); ++i) {
    generator.TopK(queries[i].tokens, k);
  }
  std::vector<double> latencies;
  latencies.reserve(queries.size());
  size_t hits = 0;
  double total_us = 0.0;
  for (const auto& query : queries) {
    Stopwatch watch;
    std::vector<ontology::ConceptId> candidates = generator.TopK(query.tokens, k);
    const double us = watch.ElapsedMicros();
    latencies.push_back(us);
    total_us += us;
    if (std::find(candidates.begin(), candidates.end(), query.concept_id) !=
        candidates.end()) {
      ++hits;
    }
    sets->push_back(std::move(candidates));
  }
  std::sort(latencies.begin(), latencies.end());
  result.recall = static_cast<double>(hits) / static_cast<double>(queries.size());
  result.p50_us = bench::PercentileSorted(latencies, 0.50);
  result.p99_us = bench::PercentileSorted(latencies, 0.99);
  result.mean_us = total_us / static_cast<double>(queries.size());
  return result;
}

SizeResult RunSize(const CorpusSpec& spec, size_t k, size_t num_queries) {
  std::cout << "[" << spec.name << "] synthesizing ontology...\n";
  auto onto = datagen::SynthesizeOntology(spec.config);
  NCL_CHECK(onto.ok()) << onto.status().ToString();
  SizeResult result;
  result.name = spec.name;
  result.num_concepts = onto->FineGrainedConcepts().size();

  datagen::QueryGeneratorConfig query_config;
  query_config.group_size = num_queries;
  query_config.purposive_per_group = std::min<size_t>(84, num_queries / 5);
  query_config.seed = 1234;
  datagen::QueryGenerator query_gen(*onto, datagen::DefaultMedicalVocabulary(),
                                    query_config);
  std::vector<datagen::LabeledQuery> queries = query_gen.GenerateGroups(1)[0];

  linking::CandidateGeneratorConfig exhaustive_config;
  exhaustive_config.index_aliases = false;
  Stopwatch build_watch;
  linking::CandidateGenerator exhaustive(*onto, {}, exhaustive_config);
  const double exhaustive_build_s = build_watch.ElapsedSeconds();

  linking::CandidateGeneratorConfig pruned_config = exhaustive_config;
  pruned_config.use_ngram_index = true;
  const int m_override = GetEnvInt("NCL_CANDGEN_M", -1);
  const int budget_override = GetEnvInt("NCL_CANDGEN_BUDGET", -1);
  const int epsilon_pct_override = GetEnvInt("NCL_CANDGEN_EPSILON_PCT", -1);
  if (m_override >= 0) {
    pruned_config.ngram.max_accumulators = static_cast<size_t>(m_override);
  }
  if (budget_override >= 0) {
    pruned_config.ngram.per_term_posting_budget =
        static_cast<size_t>(budget_override);
  }
  if (epsilon_pct_override >= 0) {
    pruned_config.ngram.early_stop_epsilon = epsilon_pct_override / 100.0;
  }
  build_watch.Reset();
  linking::CandidateGenerator pruned(*onto, {}, pruned_config);
  const double pruned_build_s = build_watch.ElapsedSeconds();
  result.ngram_terms = pruned.index().num_terms();
  result.ngram_postings = pruned.index().num_postings();

  std::cout << "[" << spec.name << "] concepts=" << result.num_concepts
            << "  queries=" << queries.size()
            << "  ngram_terms=" << result.ngram_terms
            << "  ngram_postings=" << result.ngram_postings << "\n";

  std::vector<std::vector<ontology::ConceptId>> exhaustive_sets;
  std::vector<std::vector<ontology::ConceptId>> pruned_sets;
  result.exhaustive = MeasurePath(exhaustive, queries, k, &exhaustive_sets);
  result.exhaustive.build_s = exhaustive_build_s;
  result.pruned = MeasurePath(pruned, queries, k, &pruned_sets);
  result.pruned.build_s = pruned_build_s;

  double overlap_sum = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::set<ontology::ConceptId> reference(exhaustive_sets[i].begin(),
                                            exhaustive_sets[i].end());
    size_t shared = 0;
    for (ontology::ConceptId id : pruned_sets[i]) shared += reference.count(id);
    const size_t denom = std::max<size_t>(1, reference.size());
    overlap_sum += static_cast<double>(shared) / static_cast<double>(denom);
  }
  result.overlap = overlap_sum / static_cast<double>(queries.size());
  result.relative_recall = result.exhaustive.recall > 0.0
                               ? result.pruned.recall / result.exhaustive.recall
                               : 1.0;
  result.speedup_p50 = result.pruned.p50_us > 0.0
                           ? result.exhaustive.p50_us / result.pruned.p50_us
                           : 0.0;

  std::cout << "[" << spec.name << "] exhaustive: recall@" << k << "="
            << FormatDouble(result.exhaustive.recall, 3)
            << "  p50=" << FormatDouble(result.exhaustive.p50_us, 0) << "us"
            << "  p99=" << FormatDouble(result.exhaustive.p99_us, 0) << "us\n";
  std::cout << "[" << spec.name << "] pruned:     recall@" << k << "="
            << FormatDouble(result.pruned.recall, 3)
            << "  p50=" << FormatDouble(result.pruned.p50_us, 0) << "us"
            << "  p99=" << FormatDouble(result.pruned.p99_us, 0) << "us"
            << "  overlap=" << FormatDouble(result.overlap, 3)
            << "  speedup_p50=" << FormatDouble(result.speedup_p50, 2) << "x\n";
  return result;
}

void EmitPath(JsonWriter& json, const char* key, const PathResult& r, size_t k) {
  json.Key(key).BeginObject();
  json.Key("recall_at_k").Value(r.recall);
  json.Key("k").Value(static_cast<uint64_t>(k));
  json.Key("p50_us").Value(r.p50_us);
  json.Key("p99_us").Value(r.p99_us);
  json.Key("mean_us").Value(r.mean_us);
  json.Key("build_s").Value(r.build_s);
  json.EndObject();
}

}  // namespace

int main() {
  const bool smoke = GetEnvInt("NCL_CANDGEN_SMOKE", 0) != 0;
  const bool full = BenchFullMode();
  const size_t k = static_cast<size_t>(GetEnvInt("NCL_CANDGEN_K", 10));
  const size_t num_queries = static_cast<size_t>(
      GetEnvInt("NCL_CANDGEN_QUERIES", full ? 400 : 200));
  const double recall_bar = 0.95;
  const double speedup_bar = 5.0;

  std::vector<CorpusSpec> specs;
  {
    datagen::OntologySynthesizerConfig small;
    small.num_chapters = 8;
    small.categories_per_chapter = 15;
    small.max_fine_per_category = 12;
    specs.push_back({"1k", small});
  }
  if (!smoke) {
    datagen::OntologySynthesizerConfig medium;
    medium.num_chapters = 26;
    medium.categories_per_chapter = 45;
    medium.max_fine_per_category = 12;
    // Scale the vocabulary with the corpus (as the paper-scale presets do)
    // so idf keeps a realistic spread at every swept size.
    medium.derived_disease_roots = 900;
    medium.derived_fine_qualifiers = 32;
    specs.push_back({"10k", medium});
    specs.push_back({"17k_icd9", datagen::PaperScaleIcd9Config()});
    specs.push_back({"93k_icd10", datagen::PaperScaleIcd10Config()});
  }

  std::vector<SizeResult> results;
  for (const CorpusSpec& spec : specs) {
    results.push_back(RunSize(spec, k, num_queries));
  }

  // Acceptance: recall bar always (the pruning must not cost coverage);
  // the 5x latency bar only where pruning has a corpus to prune (>= 90k).
  const SizeResult& gate = results.back();
  const bool recall_ok = gate.relative_recall >= recall_bar;
  const bool speedup_applicable = gate.num_concepts >= 90000;
  const bool speedup_ok = !speedup_applicable || gate.speedup_p50 >= speedup_bar;
  const bool acceptance_ok = recall_ok && speedup_ok;
  std::cout << "acceptance @ " << gate.name << ": relative_recall="
            << FormatDouble(gate.relative_recall, 3) << " (bar "
            << FormatDouble(recall_bar, 2) << ")  speedup_p50="
            << FormatDouble(gate.speedup_p50, 2) << "x (bar "
            << (speedup_applicable ? FormatDouble(speedup_bar, 1) + "x"
                                   : std::string("n/a at this scale"))
            << ")  -> " << (acceptance_ok ? "OK" : "FAIL") << "\n";

  JsonWriter json;
  json.BeginObject();
  json.Key("config").BeginObject();
  json.Key("k").Value(static_cast<uint64_t>(k));
  json.Key("queries_per_size").Value(static_cast<uint64_t>(num_queries));
  json.Key("smoke").Value(smoke);
  json.Key("full").Value(full);
  {
    text::NgramIndexConfig effective;
    const int m = GetEnvInt("NCL_CANDGEN_M", -1);
    const int budget = GetEnvInt("NCL_CANDGEN_BUDGET", -1);
    const int eps_pct = GetEnvInt("NCL_CANDGEN_EPSILON_PCT", -1);
    if (m >= 0) effective.max_accumulators = static_cast<size_t>(m);
    if (budget >= 0) effective.per_term_posting_budget = static_cast<size_t>(budget);
    if (eps_pct >= 0) effective.early_stop_epsilon = eps_pct / 100.0;
    json.Key("max_accumulators")
        .Value(static_cast<uint64_t>(effective.max_accumulators));
    json.Key("per_term_posting_budget")
        .Value(static_cast<uint64_t>(effective.per_term_posting_budget));
    json.Key("early_stop_epsilon").Value(effective.early_stop_epsilon);
  }
  json.EndObject();
  json.Key("sizes").BeginArray();
  for (const SizeResult& r : results) {
    json.BeginObject();
    json.Key("name").Value(r.name);
    json.Key("num_concepts").Value(static_cast<uint64_t>(r.num_concepts));
    json.Key("ngram_terms").Value(static_cast<uint64_t>(r.ngram_terms));
    json.Key("ngram_postings").Value(static_cast<uint64_t>(r.ngram_postings));
    EmitPath(json, "exhaustive", r.exhaustive, k);
    EmitPath(json, "pruned", r.pruned, k);
    json.Key("relative_recall").Value(r.relative_recall);
    json.Key("overlap_at_k").Value(r.overlap);
    json.Key("speedup_p50").Value(r.speedup_p50);
    json.EndObject();
  }
  json.EndArray();
  json.Key("acceptance").BeginObject();
  json.Key("evaluated_at").Value(gate.name);
  json.Key("relative_recall").Value(gate.relative_recall);
  json.Key("recall_bar").Value(recall_bar);
  json.Key("speedup_p50").Value(gate.speedup_p50);
  json.Key("speedup_bar").Value(speedup_bar);
  json.Key("speedup_bar_applicable").Value(speedup_applicable);
  json.Key("acceptance_ok").Value(acceptance_ok);
  json.EndObject();
  json.EndObject();
  Status status = json.WriteFile("BENCH_candgen.json");
  if (!status.ok()) {
    std::cerr << "failed to write BENCH_candgen.json: " << status.ToString()
              << "\n";
    return 1;
  }
  std::cout << "wrote BENCH_candgen.json\n";
  // The smoke run is a CI guard: fail loudly when pruning costs recall.
  if (smoke && !recall_ok) {
    std::cerr << "SMOKE FAILURE: pruned recall@" << k << " "
              << FormatDouble(gate.pruned.recall, 3) << " < exhaustive "
              << FormatDouble(gate.exhaustive.recall, 3) << " - epsilon\n";
    return 1;
  }
  return acceptance_ok || smoke ? 0 : 1;
}
