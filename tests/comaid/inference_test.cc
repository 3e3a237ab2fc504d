// Tests for the Phase-II scorer one candidate at a time — tape parity across
// COM-AID variants — and for the concept-encoding row pool behind it: the
// warm-up on first use, the explicit warm-up (bit-identical to it), rows
// shared by description prefixes (one encoder step per prefix, scores
// independent of who shares one), invalidation on weight updates (with tape
// parity after the update), concurrent first use, and the hit/miss
// counters. Scores go through ScoreLogProbFastBatch, which warms an empty
// pool.
// Run these under -fsanitize=thread (the `tsan` CMake preset) when touching
// the pool or the scoring hot loop.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "comaid/model.h"
#include "comaid/trainer.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"

namespace ncl::comaid {
namespace {

ontology::Ontology MakeOntology() {
  ontology::Ontology onto;
  auto add = [&](const char* code, std::vector<std::string> desc,
                 const char* parent) {
    auto result = onto.AddConcept(code, std::move(desc), onto.FindByCode(parent));
    EXPECT_TRUE(result.ok());
    return *result;
  };
  add("D50", {"iron", "deficiency", "anemia"}, "ROOT");
  add("D50.0", {"iron", "deficiency", "anemia", "secondary", "to", "blood", "loss"},
      "D50");
  add("D50.9", {"iron", "deficiency", "anemia", "unspecified"}, "D50");
  add("N18", {"chronic", "kidney", "disease"}, "ROOT");
  add("N18.5", {"chronic", "kidney", "disease", "stage", "5"}, "N18");
  return onto;
}

ComAidConfig SmallConfig() {
  ComAidConfig config;
  config.dim = 12;
  config.beta = 2;
  config.seed = 17;
  return config;
}

/// Targets covering the Phase II shapes: multi-word, single word, the
/// empty/<eos>-only residue, and an out-of-vocabulary word (<unk>).
std::vector<std::vector<std::string>> TestQueries() {
  return {{"anemia", "blood", "loss"},
          {"ckd"},
          {},
          {"anemia", "xylophone", "stage"}};
}

/// log p(target | concept) through the Phase-II scorer, as a one-lane batch.
double Score(const ComAidModel& model, ontology::ConceptId id,
             const std::vector<text::WordId>& target) {
  BatchScoreLane lane{id, &target, 0.0};
  model.ScoreLogProbFastBatch(&lane, 1);
  return lane.log_prob;
}

TEST(InferenceTest, FastMatchesTapeAcrossVariants) {
  // Each candidate scored on its own (a one-lane batch per pair; the first
  // call warms every concept's encoding) must agree with the tape in all
  // four attention variants.
  ontology::Ontology onto = MakeOntology();
  for (bool text : {true, false}) {
    for (bool structural : {true, false}) {
      ComAidConfig config = SmallConfig();
      config.text_attention = text;
      config.structural_attention = structural;
      ComAidModel model(config, &onto, {{"ckd"}});
      for (ontology::ConceptId id : onto.AllConcepts()) {
        for (const auto& query : TestQueries()) {
          auto target = model.MapTokens(query);
          EXPECT_NEAR(model.ScoreLogProbIds(id, target),
                      Score(model, id, target), 1e-5)
              << VariantName(config) << " concept " << onto.Get(id).code;
        }
      }
    }
  }
}

TEST(InferenceTest, CacheFillsLazilyAndPrecomputesEagerly) {
  // Fills are all or nothing: the first one-lane score encodes every
  // concept, so an explicit warm-up afterwards has nothing left to do.
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  EXPECT_EQ(model.num_cached_encodings(), 0u);

  Score(model, onto.FindByCode("N18.5"), {});
  EXPECT_EQ(model.num_cached_encodings(), onto.num_concepts());
  EXPECT_EQ(model.PrecomputeConceptEncodings(), 0u);

  // After an invalidation, an explicit warm-up encodes every concept once.
  model.InvalidateConceptEncodings();
  EXPECT_EQ(model.num_cached_encodings(), 0u);
  EXPECT_EQ(model.PrecomputeConceptEncodings(), onto.num_concepts());
  EXPECT_EQ(model.num_cached_encodings(), onto.num_concepts());
  EXPECT_EQ(model.PrecomputeConceptEncodings(), 0u);
}

TEST(InferenceTest, PrecomputeMatchesFirstUseWarmUpBitExact) {
  // An explicit warm-up and the warm-up a first scoring call runs must
  // score every concept identically in all four variants, and within 1e-5
  // of the tape. β = 3 pads every context: depth 1 with the concept itself,
  // deeper ones with their depth-1 ancestor.
  ontology::Ontology onto = MakeOntology();
  ASSERT_TRUE(onto.AddConcept("N18.51",
                              {"chronic", "kidney", "disease", "stage", "5",
                               "on", "dialysis"},
                              onto.FindByCode("N18.5"))
                  .ok());
  for (bool text : {true, false}) {
    for (bool structural : {true, false}) {
      ComAidConfig config = SmallConfig();
      config.beta = 3;
      config.text_attention = text;
      config.structural_attention = structural;
      ComAidModel warmed(config, &onto, {{"ckd"}});
      ComAidModel first_use(config, &onto, {{"ckd"}});
      EXPECT_EQ(warmed.PrecomputeConceptEncodings(), onto.num_concepts());
      EXPECT_EQ(warmed.num_cached_encodings(), onto.num_concepts());
      for (ontology::ConceptId id : onto.AllConcepts()) {
        for (const auto& query : TestQueries()) {
          auto target = warmed.MapTokens(query);
          const double eager = Score(warmed, id, target);
          EXPECT_EQ(eager, Score(first_use, id, target))
              << VariantName(config) << " concept " << onto.Get(id).code;
          EXPECT_NEAR(eager, warmed.ScoreLogProbIds(id, target), 1e-5)
              << VariantName(config) << " concept " << onto.Get(id).code;
        }
      }
    }
  }
}

TEST(InferenceTest, PrecomputeRacesFirstUseWarmUps) {
  // An explicit warm-up may race a scorer's first call; whichever of them
  // warms the pool, it is warmed once and every score is unchanged. Run
  // under the `tsan` preset to check the synchronisation.
  ontology::Ontology onto = MakeOntology();
  ComAidModel reference(SmallConfig(), &onto, {{"ckd", "5"}});
  ComAidModel model(SmallConfig(), &onto, {{"ckd", "5"}});
  const auto target = model.MapTokens({"ckd", "5"});
  std::vector<ontology::ConceptId> ids = onto.AllConcepts();
  std::vector<double> scores(ids.size());
  const auto& metrics = internal::GetConceptCacheMetrics();
  const uint64_t fills = metrics.fills->value();
  std::thread scorer([&] {
    for (size_t i = 0; i < ids.size(); ++i) scores[i] = Score(model, ids[i], target);
  });
  model.PrecomputeConceptEncodings();
  scorer.join();
  EXPECT_EQ(model.num_cached_encodings(), onto.num_concepts());
  EXPECT_EQ(metrics.fills->value() - fills, onto.num_concepts());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(scores[i], Score(reference, ids[i], target))
        << "concept " << onto.Get(ids[i]).code;
  }
}

TEST(InferenceTest, WarmUpIsNotCountedAsCacheTraffic) {
  // hits/misses measure the scorer's lookups only: a warm-up installs
  // (fills) every concept without counting its own probes, and a re-warm
  // finds nothing to do.
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  const auto& metrics = internal::GetConceptCacheMetrics();
  const uint64_t hits = metrics.hits->value();
  const uint64_t misses = metrics.misses->value();
  const uint64_t fills = metrics.fills->value();

  model.PrecomputeConceptEncodings();
  EXPECT_EQ(metrics.hits->value(), hits);
  EXPECT_EQ(metrics.misses->value(), misses);
  EXPECT_EQ(metrics.fills->value() - fills, onto.num_concepts());

  model.PrecomputeConceptEncodings();
  EXPECT_EQ(metrics.hits->value(), hits);
  EXPECT_EQ(metrics.misses->value(), misses);
  EXPECT_EQ(metrics.fills->value() - fills, onto.num_concepts());
}

TEST(InferenceTest, ScoresDoNotDependOnWhoSharesAPrefix) {
  // The pool holds one row per distinct description prefix, so appending
  // concepts renumbers the rows others share. Two leaves built from
  // in-vocabulary words, one of them repeating N18's description exactly,
  // must leave every original concept's scores bit-identical (same config,
  // seed and vocabulary, so the same weights), and score the new leaves
  // like the tape, in all four variants.
  ontology::Ontology base = MakeOntology();
  ontology::Ontology extended = MakeOntology();
  ASSERT_TRUE(extended
                  .AddConcept("D50.8", {"iron", "deficiency", "anemia", "stage"},
                              extended.FindByCode("D50"))
                  .ok());
  ASSERT_TRUE(extended
                  .AddConcept("N18.9", {"chronic", "kidney", "disease"},
                              extended.FindByCode("N18"))
                  .ok());
  for (bool text : {true, false}) {
    for (bool structural : {true, false}) {
      ComAidConfig config = SmallConfig();
      config.text_attention = text;
      config.structural_attention = structural;
      ComAidModel base_model(config, &base, {{"ckd"}});
      ComAidModel extended_model(config, &extended, {{"ckd"}});
      ASSERT_EQ(base_model.vocabulary().size(),
                extended_model.vocabulary().size());
      for (const auto& query : TestQueries()) {
        const auto target = base_model.MapTokens(query);
        for (ontology::ConceptId id : base.AllConcepts()) {
          EXPECT_EQ(Score(base_model, id, target),
                    Score(extended_model, id, target))
              << VariantName(config) << " concept " << base.Get(id).code;
        }
        for (const char* code : {"D50.8", "N18.9"}) {
          const ontology::ConceptId id = extended.FindByCode(code);
          EXPECT_NEAR(Score(extended_model, id, target),
                      extended_model.ScoreLogProbIds(id, target), 1e-5)
              << VariantName(config) << " concept " << code;
        }
      }
    }
  }
}

TEST(InferenceTest, WarmUpEncodesEachDistinctPrefixOnce) {
  // MakeOntology's five descriptions hold 22 tokens but 13 distinct
  // prefixes: "iron deficiency anemia" and "chronic kidney disease" each
  // start two descriptions. A warm-up runs one encoder step per prefix.
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Counter* steps =
      registry.GetCounter("ncl.concept_cache.encoder_steps");
  const obs::Counter* fills = registry.GetCounter("ncl.concept_cache.fills");
  const uint64_t steps_before = steps->value();
  const uint64_t fills_before = fills->value();

  model.PrecomputeConceptEncodings();
  EXPECT_EQ(steps->value() - steps_before, 13u);
  EXPECT_EQ(fills->value() - fills_before, 5u);

  // Already warm: nothing to encode.
  model.PrecomputeConceptEncodings();
  EXPECT_EQ(steps->value() - steps_before, 13u);
  EXPECT_EQ(fills->value() - fills_before, 5u);
}

TEST(InferenceTest, TrainingInvalidatesCacheAndKeepsParity) {
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {{"ckd", "5"}});
  auto concept_id = onto.FindByCode("N18.5");
  auto target = model.MapTokens({"ckd", "5"});

  model.PrecomputeConceptEncodings();
  uint64_t version_before = model.weights_version();
  double score_before = Score(model, concept_id, target);

  // One gradient step through TrainBatch must invalidate every cached
  // encoding — otherwise the batched scorer would keep scoring with
  // pre-update encoder states while the tape path uses the new weights.
  TrainConfig tc;
  ComAidTrainer trainer(tc);
  nn::SgdOptimizer optimizer(0.5, 0.0, 5.0);
  trainer.TrainBatch(&model, &optimizer,
                     {TrainingPair{concept_id, target}});

  EXPECT_GT(model.weights_version(), version_before);
  EXPECT_EQ(model.num_cached_encodings(), 0u);

  double fast_after = Score(model, concept_id, target);
  double tape_after = model.ScoreLogProbIds(concept_id, target);
  EXPECT_NEAR(fast_after, tape_after, 1e-5);
  // A 0.5-learning-rate step on this exact pair moves the score.
  EXPECT_NE(fast_after, score_before);
}

TEST(InferenceTest, ConcurrentScoringMatchesSerial) {
  // Serving shards score concurrently against one model; racing first-use
  // warm-ups and shared encoding reads must produce identical scores. Run
  // under the `tsan` preset to check the synchronisation.
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {{"ckd", "5"}});
  std::vector<ontology::ConceptId> ids = onto.AllConcepts();
  auto queries = TestQueries();

  std::vector<std::pair<ontology::ConceptId, std::vector<text::WordId>>> work;
  for (ontology::ConceptId id : ids) {
    for (const auto& query : queries) work.emplace_back(id, model.MapTokens(query));
  }
  std::vector<double> serial(work.size());
  for (size_t i = 0; i < work.size(); ++i) {
    serial[i] = model.ScoreLogProbIds(work[i].first, work[i].second);
  }

  // Empty pool so the concurrent pass races the first-use warm-up.
  model.InvalidateConceptEncodings();
  std::vector<double> concurrent(work.size());
  constexpr size_t kThreads = 8;
  for (int repeat = 0; repeat < 4; ++repeat) {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < work.size(); i += kThreads) {
          concurrent[i] = Score(model, work[i].first, work[i].second);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t i = 0; i < work.size(); ++i) {
      EXPECT_NEAR(concurrent[i], serial[i], 1e-5) << "work item " << i;
    }
  }
}

TEST(InferenceTest, CacheMetricsShowAllHitsOnRepeatQuery) {
  // The serving win behind the pool: the second identical query touches no
  // encoder. Assert it through the `ncl.concept_cache.*` counters.
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  const auto& metrics = internal::GetConceptCacheMetrics();
  auto target = model.MapTokens({"anemia", "blood", "loss"});

  // One lane per concept, all scored in one batch.
  std::vector<BatchScoreLane> lanes;
  for (ontology::ConceptId id : onto.AllConcepts()) {
    lanes.push_back(BatchScoreLane{id, &target, 0.0});
  }

  uint64_t hits_before = metrics.hits->value();
  uint64_t misses_before = metrics.misses->value();
  uint64_t fills_before = metrics.fills->value();
  model.ScoreLogProbFastBatch(lanes.data(), lanes.size());
  // Cold pass: one miss (the call that found the pool empty and warmed it)
  // and one fill per concept.
  EXPECT_EQ(metrics.misses->value() - misses_before, 1u);
  EXPECT_EQ(metrics.hits->value() - hits_before, 0u);
  EXPECT_EQ(metrics.fills->value() - fills_before, onto.num_concepts());

  hits_before = metrics.hits->value();
  misses_before = metrics.misses->value();
  fills_before = metrics.fills->value();
  model.ScoreLogProbFastBatch(lanes.data(), lanes.size());
  // Warm pass over the identical query: one hit per lane, no miss or fill.
  EXPECT_EQ(metrics.hits->value() - hits_before, lanes.size());
  EXPECT_EQ(metrics.misses->value() - misses_before, 0u);
  EXPECT_EQ(metrics.fills->value() - fills_before, 0u);

  const uint64_t invalidations_before = metrics.invalidations->value();
  const uint64_t evictions_before = metrics.evictions->value();
  model.InvalidateConceptEncodings();
  EXPECT_EQ(metrics.invalidations->value() - invalidations_before, 1u);
  EXPECT_EQ(metrics.evictions->value() - evictions_before, onto.num_concepts());
}

}  // namespace
}  // namespace ncl::comaid
