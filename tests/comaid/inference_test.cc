// Tests for the Phase-II scorer one candidate at a time — tape parity across
// COM-AID variants — and for the concept-encoding cache behind it: lazy fill,
// eager precompute (bit-identical to lazy fills), invalidation on weight
// updates (with tape parity after the update), racing fills under
// concurrent scoring, and the hit/miss counters. Scores go through
// ScoreLogProbFastBatch, which fills the cache.
// Run these under -fsanitize=thread (the `tsan` CMake preset) when touching
// the cache or the scoring hot loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "comaid/model.h"
#include "comaid/trainer.h"
#include "nn/optimizer.h"
#include "util/thread_pool.h"

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
  // Each candidate scored on its own (a cold one-lane batch per pair) must
  // agree with the tape in all four attention variants.
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
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  EXPECT_EQ(model.num_cached_encodings(), 0u);

  Score(model, onto.FindByCode("N18.5"), {});
  EXPECT_GE(model.num_cached_encodings(), 1u);

  // The lazy fill of N18.5 also cached its ancestor N18: its structural
  // context rows are copies of N18's cached final state.
  size_t computed = model.PrecomputeConceptEncodings();
  EXPECT_EQ(model.num_cached_encodings(), onto.num_concepts());
  EXPECT_EQ(computed + 2, onto.num_concepts());  // N18.5 and N18 were cached

  // Idempotent: everything already cached.
  EXPECT_EQ(model.PrecomputeConceptEncodings(), 0u);
}

TEST(InferenceTest, PrecomputeMatchesLazyFillBitExact) {
  // The warm-up fills a depth level at a time on every core, copying
  // structural-context rows from ancestors cached by earlier levels; a lazy
  // fill caches the ancestors it reads on demand. Both must score every
  // concept identically in all four variants. β = 3 pads every context:
  // depth 1 with the concept itself, deeper ones with their depth-1
  // ancestor. Scoring deepest first makes the lazy fills reach ancestors
  // that are not cached yet.
  ontology::Ontology onto = MakeOntology();
  ASSERT_TRUE(onto.AddConcept("N18.51",
                              {"chronic", "kidney", "disease", "stage", "5",
                               "on", "dialysis"},
                              onto.FindByCode("N18.5"))
                  .ok());
  std::vector<ontology::ConceptId> ids = onto.AllConcepts();
  std::reverse(ids.begin(), ids.end());
  for (bool text : {true, false}) {
    for (bool structural : {true, false}) {
      ComAidConfig config = SmallConfig();
      config.beta = 3;
      config.text_attention = text;
      config.structural_attention = structural;
      ComAidModel warmed(config, &onto, {{"ckd"}});
      ComAidModel lazy(config, &onto, {{"ckd"}});
      EXPECT_EQ(warmed.PrecomputeConceptEncodings(), onto.num_concepts());
      EXPECT_EQ(warmed.num_cached_encodings(), onto.num_concepts());
      for (ontology::ConceptId id : ids) {
        for (const auto& query : TestQueries()) {
          auto target = warmed.MapTokens(query);
          const double eager = Score(warmed, id, target);
          EXPECT_EQ(eager, Score(lazy, id, target))
              << VariantName(config) << " concept " << onto.Get(id).code;
          EXPECT_NEAR(eager, warmed.ScoreLogProbIds(id, target), 1e-5)
              << VariantName(config) << " concept " << onto.Get(id).code;
        }
      }
    }
  }
}

TEST(InferenceTest, PrecomputeRacesLazyFills) {
  // The cache lets a warm-up run while scorers fill it lazily; whichever
  // fill installs a slot, every score is unchanged. Scoring deepest first
  // makes the lazy fills race the warm-up for ancestors too. Run under the
  // `tsan` preset to check the synchronisation.
  ontology::Ontology onto = MakeOntology();
  ComAidModel reference(SmallConfig(), &onto, {{"ckd", "5"}});
  ComAidModel model(SmallConfig(), &onto, {{"ckd", "5"}});
  const auto target = model.MapTokens({"ckd", "5"});
  std::vector<ontology::ConceptId> ids = onto.AllConcepts();
  std::reverse(ids.begin(), ids.end());
  std::vector<double> scores(ids.size());
  std::thread scorer([&] {
    for (size_t i = 0; i < ids.size(); ++i) scores[i] = Score(model, ids[i], target);
  });
  model.PrecomputeConceptEncodings();
  scorer.join();
  EXPECT_EQ(model.num_cached_encodings(), onto.num_concepts());
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
  // Phase II scores k candidates concurrently on a pool; racing lazy cache
  // fills and shared encoding reads must produce identical scores. Run
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

  // Fresh cache so the concurrent pass exercises racing fills.
  model.InvalidateConceptEncodings();
  std::vector<double> concurrent(work.size());
  ThreadPool pool(8);
  for (int repeat = 0; repeat < 4; ++repeat) {
    pool.ParallelFor(work.size(), [&](size_t i) {
      concurrent[i] = Score(model, work[i].first, work[i].second);
    });
    for (size_t i = 0; i < work.size(); ++i) {
      EXPECT_NEAR(concurrent[i], serial[i], 1e-5) << "work item " << i;
    }
  }
}

TEST(InferenceTest, CacheMetricsShowAllHitsOnRepeatQuery) {
  // The serving win behind the cache: the second identical query touches no
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

  uint64_t misses_before = metrics.misses->value();
  uint64_t fills_before = metrics.fills->value();
  model.ScoreLogProbFastBatch(lanes.data(), lanes.size());
  // Cold pass: one miss + fill per concept.
  EXPECT_EQ(metrics.misses->value() - misses_before, onto.num_concepts());
  EXPECT_EQ(metrics.fills->value() - fills_before, onto.num_concepts());

  uint64_t hits_before = metrics.hits->value();
  misses_before = metrics.misses->value();
  model.ScoreLogProbFastBatch(lanes.data(), lanes.size());
  // Warm pass over the identical query: every lookup hits, none miss.
  EXPECT_EQ(metrics.hits->value() - hits_before, onto.num_concepts());
  EXPECT_EQ(metrics.misses->value() - misses_before, 0u);

  uint64_t invalidations_before = metrics.invalidations->value();
  model.InvalidateConceptEncodings();
  EXPECT_GT(metrics.invalidations->value(), invalidations_before);
}

}  // namespace
}  // namespace ncl::comaid
