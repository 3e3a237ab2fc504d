// Tests for the Phase-II scorer: parity with the tape path in every
// attention variant, bit-stability across lane counts and batch
// compositions (the ScoreLogProbFastBatch determinism contract; one-lane
// tiles are the per-candidate computation), ragged target handling
// including empty residues, and per-thread scratch reuse. Run under the
// asan/tsan presets when touching the lock-step loop — the shrinking-prefix
// masking is exactly the kind of code that hides off-by-one reads.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "comaid/inference.h"
#include "comaid/model.h"
#include "comaid/trainer.h"
#include "nn/simd.h"

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

/// Ragged targets: multi-word, single-word, empty (<eos>-only residue), and
/// an out-of-vocabulary word.
std::vector<std::vector<std::string>> TestQueries() {
  return {{"anemia", "blood", "loss"},
          {"ckd"},
          {},
          {"anemia", "xylophone", "stage"},
          {"chronic", "kidney", "disease", "stage", "5", "anemia"}};
}

/// Every (concept, query) pair as a lane list with stable target storage.
struct LaneSet {
  std::vector<std::vector<text::WordId>> targets;
  std::vector<BatchScoreLane> lanes;
};

LaneSet MakeLanes(const ComAidModel& model, const ontology::Ontology& onto,
                  const std::vector<std::vector<std::string>>& queries =
                      TestQueries()) {
  LaneSet set;
  const size_t num_concepts = onto.AllConcepts().size();
  for (size_t c = 0; c < num_concepts; ++c) {
    for (const auto& query : queries) {
      set.targets.push_back(model.MapTokens(query));
    }
  }
  size_t next = 0;
  for (ontology::ConceptId id : onto.AllConcepts()) {
    for (size_t q = 0; q < queries.size(); ++q) {
      BatchScoreLane lane;
      lane.concept_id = id;
      lane.target = &set.targets[next++];
      set.lanes.push_back(lane);
    }
  }
  return set;
}

/// The four COM-AID variants of the Fig. 6 ablation.
std::vector<ComAidConfig> AllVariants() {
  std::vector<ComAidConfig> variants;
  for (bool text : {true, false}) {
    for (bool structural : {true, false}) {
      ComAidConfig config = SmallConfig();
      config.text_attention = text;
      config.structural_attention = structural;
      variants.push_back(config);
    }
  }
  return variants;
}

TEST(BatchInferenceTest, MatchesSingleLaneBitExactAcrossVariants) {
  // Each lane of one whole batch must reproduce that lane scored alone, as a
  // batch of one: both run the same canonical per-element reduction order,
  // so this is ==, not NEAR. The variants cover both attention switches.
  ontology::Ontology onto = MakeOntology();
  for (const ComAidConfig& config : AllVariants()) {
    ComAidModel model(config, &onto, {{"ckd"}});
    LaneSet set = MakeLanes(model, onto);
    model.ScoreLogProbFastBatch(set.lanes.data(), set.lanes.size());
    for (const BatchScoreLane& lane : set.lanes) {
      BatchScoreLane alone{lane.concept_id, lane.target, 0.0};
      model.ScoreLogProbFastBatch(&alone, 1);
      EXPECT_EQ(lane.log_prob, alone.log_prob)
          << VariantName(config) << " concept " << lane.concept_id;
    }
  }
}

TEST(BatchInferenceTest, MatchesTapeWithinTolerance) {
  ontology::Ontology onto = MakeOntology();
  for (const ComAidConfig& config : AllVariants()) {
    ComAidModel model(config, &onto, {{"ckd"}});
    LaneSet set = MakeLanes(model, onto);
    model.ScoreLogProbFastBatch(set.lanes.data(), set.lanes.size());
    for (const BatchScoreLane& lane : set.lanes) {
      EXPECT_NEAR(lane.log_prob,
                  model.ScoreLogProbIds(lane.concept_id, *lane.target), 1e-5)
          << VariantName(config) << " concept " << lane.concept_id;
    }
  }
}

TEST(BatchInferenceTest, InvariantToMaxLanesAndRepeats) {
  // The tiling knob must not change a single bit of any score, and repeated
  // runs must agree exactly (determinism). max_lanes = 1 is the
  // per-candidate computation, so this also pins batched == unbatched.
  ontology::Ontology onto = MakeOntology();
  for (const ComAidConfig& config : AllVariants()) {
    ComAidModel model(config, &onto, {{"ckd"}});
    LaneSet reference = MakeLanes(model, onto);
    model.ScoreLogProbFastBatch(reference.lanes.data(), reference.lanes.size());

    for (size_t max_lanes : {size_t{1}, size_t{3}, size_t{32}}) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        LaneSet set = MakeLanes(model, onto);
        model.ScoreLogProbFastBatch(set.lanes.data(), set.lanes.size(),
                                    max_lanes);
        for (size_t i = 0; i < set.lanes.size(); ++i) {
          EXPECT_EQ(set.lanes[i].log_prob, reference.lanes[i].log_prob)
              << VariantName(config) << " max_lanes=" << max_lanes
              << " lane " << i;
        }
      }
    }
  }
}

TEST(BatchInferenceTest, InvariantToLaneOrder) {
  // Reversing the lane order changes which lanes share tiles and the sorted
  // prefix layout; scores must not move.
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {{"ckd"}});
  LaneSet forward = MakeLanes(model, onto);
  model.ScoreLogProbFastBatch(forward.lanes.data(), forward.lanes.size());

  LaneSet backward = MakeLanes(model, onto);
  std::reverse(backward.lanes.begin(), backward.lanes.end());
  model.ScoreLogProbFastBatch(backward.lanes.data(), backward.lanes.size());
  const size_t n = forward.lanes.size();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(forward.lanes[i].log_prob, backward.lanes[n - 1 - i].log_prob)
        << "lane " << i;
  }
}

TEST(BatchInferenceTest, ParityHoldsAfterTraining) {
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {{"ckd", "5"}});
  std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>> aliases = {
      {onto.FindByCode("N18.5"), {"ckd", "5"}},
      {onto.FindByCode("D50.0"), {"anemia", "blood", "loss"}},
  };
  TrainConfig tc;
  tc.epochs = 3;
  ComAidTrainer trainer(tc);
  trainer.Train(&model, MakeTrainingPairs(model, aliases));

  LaneSet set = MakeLanes(model, onto);
  model.ScoreLogProbFastBatch(set.lanes.data(), set.lanes.size());
  for (const BatchScoreLane& lane : set.lanes) {
    EXPECT_NEAR(lane.log_prob,
                model.ScoreLogProbIds(lane.concept_id, *lane.target), 1e-5);
  }
}

TEST(BatchInferenceTest, ContextReuseAcrossShapes) {
  // One thread's scratch is reused across differently shaped batches and
  // must not leak state between calls (buffers only ever grow).
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});

  LaneSet big = MakeLanes(model, onto);
  model.ScoreLogProbFastBatch(big.lanes.data(), big.lanes.size());
  std::vector<double> first;
  for (const auto& lane : big.lanes) first.push_back(lane.log_prob);

  // A small interleaved batch, then the big one again.
  LaneSet small = MakeLanes(model, onto);
  model.ScoreLogProbFastBatch(small.lanes.data(), 2);
  LaneSet again = MakeLanes(model, onto);
  model.ScoreLogProbFastBatch(again.lanes.data(), again.lanes.size());
  for (size_t i = 0; i < again.lanes.size(); ++i) {
    EXPECT_EQ(again.lanes[i].log_prob, first[i]) << "lane " << i;
  }
}

TEST(BatchInferenceTest, ConcurrentBatchesMatchSerial) {
  // Shards score tiles concurrently against one shared model whose
  // encodings were just invalidated, so their first-use warm-ups race.
  // Run under the tsan preset.
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {{"ckd"}});
  LaneSet serial = MakeLanes(model, onto);
  model.ScoreLogProbFastBatch(serial.lanes.data(), serial.lanes.size());

  model.InvalidateConceptEncodings();
  constexpr size_t kThreads = 4;
  std::vector<LaneSet> sets;
  for (size_t i = 0; i < kThreads; ++i) sets.push_back(MakeLanes(model, onto));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      model.ScoreLogProbFastBatch(sets[t].lanes.data(), sets[t].lanes.size());
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const LaneSet& set : sets) {
    for (size_t i = 0; i < set.lanes.size(); ++i) {
      EXPECT_EQ(set.lanes[i].log_prob, serial.lanes[i].log_prob);
    }
  }
}

TEST(BatchInferenceTest, EveryKernelSetScoresBitIdentically) {
  // The kernel set (nn/simd.h) changes speed, never a score: under a cap at
  // each set the host runs, every lane of a trained model scores the same
  // bits, concept encodings and packed weights re-made under the cap
  // included. 75 mixed-length lanes, at a width with vector tails and a
  // partial 16-column panel (12) and one without (32).
#if defined(__ASSOCIATIVE_MATH__)
  GTEST_SKIP() << "-ffast-math build: the sets' bits differ by design";
#endif
  if (nn::ActiveKernelSet() == nn::KernelSet::kScalar) {
    GTEST_SKIP() << "host has no AVX2: only the scalar set runs";
  }
  ontology::Ontology onto = MakeOntology();
  std::vector<std::vector<std::string>> queries = TestQueries();
  for (const auto& extra : std::vector<std::vector<std::string>>{
           {"iron"},
           {"blood", "loss"},
           {"kidney", "disease", "stage"},
           {"iron", "deficiency", "anemia", "unspecified"},
           {"chronic", "kidney", "disease", "stage", "5"},
           {"anemia", "secondary", "to", "blood", "loss", "ckd"},
           {"iron", "deficiency", "anemia", "secondary", "to", "blood", "loss"},
           {"stage", "5", "chronic", "kidney", "disease", "anemia", "iron",
            "deficiency"},
           {"5"},
           {"unspecified", "anemia"}}) {
    queries.push_back(extra);
  }
  for (size_t dim : {size_t{12}, size_t{32}}) {
    ComAidConfig config = SmallConfig();
    config.dim = dim;
    ComAidModel model(config, &onto, {{"ckd", "5"}});
    TrainConfig tc;
    tc.epochs = 3;
    ComAidTrainer trainer(tc);
    trainer.Train(&model,
                  MakeTrainingPairs(model, {{onto.FindByCode("N18.5"),
                                             {"ckd", "5"}}}));

    auto score = [&] {
      model.InvalidateConceptEncodings();
      LaneSet set = MakeLanes(model, onto, queries);
      model.ScoreLogProbFastBatch(set.lanes.data(), set.lanes.size());
      std::vector<double> log_probs;
      for (const BatchScoreLane& lane : set.lanes) {
        log_probs.push_back(lane.log_prob);
      }
      return log_probs;
    };
    const std::vector<double> best = score();
    ASSERT_GE(best.size(), 64u);
    for (nn::KernelSet set : nn::RunnableKernelSets()) {
      nn::ScopedKernelCap cap(set);
      const std::vector<double> capped = score();
      ASSERT_EQ(best.size(), capped.size());
      for (size_t i = 0; i < best.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(best[i]),
                  std::bit_cast<uint64_t>(capped[i]))
            << "dim=" << dim << " lane " << i << ": " << best[i] << " vs "
            << capped[i] << " on " << nn::SimdPathName();
      }
    }
  }
}

TEST(BatchInferenceTest, EmptyBatchIsANoOp) {
  ontology::Ontology onto = MakeOntology();
  ComAidModel model(SmallConfig(), &onto, {});
  model.ScoreLogProbFastBatch(nullptr, 0);  // must not touch lanes or crash
}

}  // namespace
}  // namespace ncl::comaid
