#include "linking/ncl_linker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "comaid/trainer.h"
#include "nn/simd.h"

namespace ncl::linking {
namespace {

struct Fixture {
  ontology::Ontology onto;
  std::unique_ptr<comaid::ComAidModel> model;
  std::unique_ptr<CandidateGenerator> candidates;

  Fixture() {
    auto add = [&](const char* code, std::vector<std::string> desc,
                   const char* parent) {
      auto result = onto.AddConcept(code, std::move(desc), onto.FindByCode(parent));
      EXPECT_TRUE(result.ok());
      return *result;
    };
    add("D50", {"iron", "deficiency", "anemia"}, "ROOT");
    add("D50.0", {"iron", "deficiency", "anemia", "blood", "loss"}, "D50");
    add("D50.9", {"iron", "deficiency", "anemia", "unspecified"}, "D50");
    add("N18", {"chronic", "kidney", "disease"}, "ROOT");
    add("N18.5", {"chronic", "kidney", "disease", "stage", "5"}, "N18");
    add("N18.9", {"chronic", "kidney", "disease", "unspecified"}, "N18");

    std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>> aliases = {
        {onto.FindByCode("N18.5"), {"ckd", "5"}},
        {onto.FindByCode("N18.5"), {"kidney", "disease", "5"}},
        {onto.FindByCode("N18.9"), {"ckd", "nos"}},
        {onto.FindByCode("D50.0"), {"anemia", "blood", "loss"}},
        {onto.FindByCode("D50.9"), {"iron", "anemia", "nos"}},
    };
    std::vector<std::vector<std::string>> extra;
    for (auto& [id, tokens] : aliases) extra.push_back(tokens);

    comaid::ComAidConfig config;
    config.dim = 16;
    config.beta = 1;
    model = std::make_unique<comaid::ComAidModel>(config, &onto, extra);

    comaid::TrainConfig tc;
    tc.epochs = 15;
    comaid::ComAidTrainer trainer(tc);
    trainer.Train(model.get(), comaid::MakeTrainingPairs(*model, aliases));

    candidates = std::make_unique<CandidateGenerator>(onto, aliases);
  }
};

TEST(NclLinkerTest, LinksTrainedAlias) {
  Fixture f;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr);
  auto ranking = linker.Link({"ckd", "5"}, 3);
  ASSERT_FALSE(ranking.empty());
  EXPECT_EQ(f.onto.Get(ranking[0].concept_id).code, "N18.5");
}

TEST(NclLinkerTest, RejectsNonPositiveK) {
  // k is fixed at construction (the old set_k mutator raced with concurrent
  // Link calls and was removed); a zero k is a configuration bug, caught
  // loudly rather than returning silent empty rankings.
  Fixture f;
  NclConfig config;
  config.k = 0;
  EXPECT_DEATH(NclLinker(f.model.get(), f.candidates.get(), nullptr, config),
               "k must be positive");
}

TEST(NclLinkerTest, RankingScoresDescending) {
  Fixture f;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr);
  auto ranking = linker.Link({"anemia", "blood", "loss"}, 5);
  for (size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_GE(ranking[i - 1].score, ranking[i].score);
  }
}

TEST(NclLinkerTest, DetailedTimingsPopulated) {
  Fixture f;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr);
  PhaseTimings timings;
  auto scored = linker.LinkDetailed({"kidney", "disease", "5"}, &timings);
  EXPECT_FALSE(scored.empty());
  EXPECT_GT(timings.score_us, 0.0);
  EXPECT_GT(timings.retrieve_us, 0.0);
  EXPECT_GT(timings.total_us(), timings.score_us);
}

TEST(NclLinkerTest, LossIsNegLogProb) {
  Fixture f;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr);
  auto scored = linker.LinkDetailed({"ckd", "5"});
  for (const auto& c : scored) {
    EXPECT_DOUBLE_EQ(c.loss, -c.log_prob);
    EXPECT_GT(c.loss, 0.0);
  }
}

TEST(NclLinkerTest, KCapsPhaseOneCandidates) {
  Fixture f;
  NclConfig config;
  config.k = 2;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr, config);
  EXPECT_LE(linker.LinkDetailed({"anemia", "kidney"}).size(), 2u);
}

TEST(NclLinkerTest, FastAndTapeScoringAgree) {
  // The linker's tape-free scores must reproduce the tape scorer on each
  // candidate's shared-word residue (§5) within the parity bound, and rank
  // the candidates the same way.
  Fixture f;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr);
  for (const std::vector<std::string>& query :
       {std::vector<std::string>{"ckd", "5"},
        std::vector<std::string>{"iron", "anemia", "nos"},
        std::vector<std::string>{"anemia", "blood", "loss"}}) {
    auto scored = linker.LinkDetailed(query);
    ASSERT_FALSE(scored.empty());
    const std::vector<text::WordId> query_ids = f.model->MapTokens(query);
    std::vector<ScoredCandidate> tape;
    for (const ScoredCandidate& candidate : scored) {
      const auto& description = f.model->ConceptWords(candidate.concept_id);
      std::vector<text::WordId> residue;
      for (text::WordId word : query_ids) {
        if (std::find(description.begin(), description.end(), word) ==
            description.end()) {
          residue.push_back(word);
        }
      }
      const double log_prob =
          f.model->ScoreLogProbIds(candidate.concept_id, residue);
      EXPECT_NEAR(candidate.log_prob, log_prob, 1e-5);
      tape.push_back(ScoredCandidate{candidate.concept_id, log_prob, -log_prob});
    }
    std::sort(tape.begin(), tape.end(),
              [](const ScoredCandidate& a, const ScoredCandidate& b) {
                if (a.log_prob != b.log_prob) return a.log_prob > b.log_prob;
                return a.concept_id < b.concept_id;
              });
    for (size_t i = 0; i < scored.size(); ++i) {
      EXPECT_EQ(scored[i].concept_id, tape[i].concept_id);
    }
  }
}

TEST(NclLinkerTest, RemoveSharedWordsChangesScores) {
  Fixture f;
  NclConfig with;
  with.remove_shared_words = true;
  NclConfig without;
  without.remove_shared_words = false;
  NclLinker a(f.model.get(), f.candidates.get(), nullptr, with);
  NclLinker b(f.model.get(), f.candidates.get(), nullptr, without);
  // Query overlapping a description: Phase II targets differ.
  auto ra = a.LinkDetailed({"iron", "deficiency", "anemia", "extra"});
  auto rb = b.LinkDetailed({"iron", "deficiency", "anemia", "extra"});
  ASSERT_FALSE(ra.empty());
  ASSERT_FALSE(rb.empty());
  bool any_different = false;
  for (const auto& ca : ra) {
    for (const auto& cb : rb) {
      if (ca.concept_id == cb.concept_id && ca.log_prob != cb.log_prob) {
        any_different = true;
      }
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(NclLinkerTest, MapPriorReordersCandidates) {
  // Eq. 11: a strong prior on a non-top candidate must be able to lift it.
  Fixture f;
  NclConfig mle;
  NclLinker base(f.model.get(), f.candidates.get(), nullptr, mle);
  auto baseline = base.LinkDetailed({"ckd", "5"});
  ASSERT_GE(baseline.size(), 2u);
  ontology::ConceptId runner_up = baseline[1].concept_id;

  NclConfig map = mle;
  map.concept_prior[runner_up] = 1.0;   // overwhelming prior mass
  map.default_prior = 1e-12;
  NclLinker map_linker(f.model.get(), f.candidates.get(), nullptr, map);
  auto reranked = map_linker.LinkDetailed({"ckd", "5"});
  ASSERT_FALSE(reranked.empty());
  EXPECT_EQ(reranked[0].concept_id, runner_up);
}

TEST(NclLinkerTest, UniformPriorMatchesMle) {
  Fixture f;
  NclConfig mle;
  NclConfig uniform;
  for (auto id : f.onto.FineGrainedConcepts()) uniform.concept_prior[id] = 0.25;
  NclLinker a(f.model.get(), f.candidates.get(), nullptr, mle);
  NclLinker b(f.model.get(), f.candidates.get(), nullptr, uniform);
  auto ra = a.LinkDetailed({"ckd", "5"});
  auto rb = b.LinkDetailed({"ckd", "5"});
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].concept_id, rb[i].concept_id);  // same order under Eq. 12
  }
}

TEST(NclLinkerTest, NoCandidatesYieldsEmptyRanking) {
  Fixture f;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr);
  EXPECT_TRUE(linker.Link({"xylophone"}, 3).empty());
}

TEST(NclLinkerTest, BatchedEdInvariantToLaneWidth) {
  // A pooled LinkBatchDetailed pass spans more than one kDefaultScoreLanes
  // tile. Its scores must be bit-identical to per-query LinkDetailed (one
  // narrow tile per query).
  Fixture f;
  std::vector<std::vector<std::string>> queries;
  for (int repeat = 0; repeat < 4; ++repeat) {
    queries.push_back({"iron", "anemia", "kidney", "disease"});
    queries.push_back({"anemia", "blood", "loss", "chronic", "5"});
    queries.push_back({"deficiency", "kidney", "unspecified"});
  }
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr);
  std::vector<std::vector<ScoredCandidate>> expected;
  size_t total_lanes = 0;
  for (const auto& query : queries) {
    expected.push_back(linker.LinkDetailed(query));
    total_lanes += expected.back().size();
  }
  ASSERT_GT(total_lanes, comaid::ComAidModel::kDefaultScoreLanes);

  auto got = linker.LinkBatchDetailed(queries);
  ASSERT_EQ(got.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(got[q].size(), expected[q].size()) << "query " << q;
    for (size_t i = 0; i < got[q].size(); ++i) {
      EXPECT_EQ(got[q][i].concept_id, expected[q][i].concept_id)
          << "query " << q;
      EXPECT_EQ(got[q][i].log_prob, expected[q][i].log_prob) << "query " << q;
    }
  }
}

TEST(NclLinkerTest, RankingsIdenticalOnEveryKernelSet) {
  // The kernel set (nn/simd.h) changes speed, never a ranking: under a cap
  // at each set the host runs, with the concept encodings warmed
  // again, every query returns the same concepts in the same order with the
  // same score bits.
#if defined(__ASSOCIATIVE_MATH__)
  GTEST_SKIP() << "-ffast-math build: the sets' bits differ by design";
#endif
  if (nn::ActiveKernelSet() == nn::KernelSet::kScalar) {
    GTEST_SKIP() << "host has no AVX2: only the scalar set runs";
  }
  Fixture f;
  const std::vector<std::vector<std::string>> queries = {
      {"ckd", "5"},
      {"iron", "anemia", "nos"},
      {"anemia", "blood", "loss"},
      {"chronic", "kidney", "disease", "unspecified"},
      {"iron", "deficiency", "anemia", "kidney", "disease", "stage", "5"},
      {"deficiency"}};
  auto link_all = [&] {
    f.model->InvalidateConceptEncodings();
    NclLinker linker(f.model.get(), f.candidates.get(), nullptr);
    return linker.LinkBatchDetailed(queries);
  };
  const auto best = link_all();
  for (nn::KernelSet set : nn::RunnableKernelSets()) {
    nn::ScopedKernelCap cap(set);
    const auto capped = link_all();
    ASSERT_EQ(best.size(), capped.size());
    for (size_t q = 0; q < best.size(); ++q) {
      ASSERT_FALSE(best[q].empty()) << "query " << q;
      ASSERT_EQ(best[q].size(), capped[q].size()) << "query " << q;
      for (size_t i = 0; i < best[q].size(); ++i) {
        EXPECT_EQ(best[q][i].concept_id, capped[q][i].concept_id)
            << nn::SimdPathName() << " query " << q << " rank " << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(best[q][i].log_prob),
                  std::bit_cast<uint64_t>(capped[q][i].log_prob))
            << nn::SimdPathName() << " query " << q << " rank " << i;
      }
    }
  }
}

TEST(NclLinkerTest, LinkBatchDetailedMatchesSequentialLinkDetailed) {
  Fixture f;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr);
  std::vector<std::vector<std::string>> queries = {
      {"ckd", "5"},
      {"iron", "anemia", "nos"},
      {},
      {"anemia", "blood", "loss"},
      {"xylophone"}};  // no candidates: empty per-query result
  std::vector<PhaseTimings> timings;
  auto batch = linker.LinkBatchDetailed(queries, &timings);
  ASSERT_EQ(batch.size(), queries.size());
  ASSERT_EQ(timings.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    auto expected = linker.LinkDetailed(queries[q]);
    ASSERT_EQ(batch[q].size(), expected.size()) << "query " << q;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(batch[q][i].concept_id, expected[i].concept_id);
      EXPECT_EQ(batch[q][i].log_prob, expected[i].log_prob);
      EXPECT_EQ(batch[q][i].loss, expected[i].loss);
    }
  }
  EXPECT_TRUE(batch[4].empty());
}

TEST(NclLinkerTest, LinkBatchDetailedEmptyAndPriorPostPass) {
  Fixture f;
  // The shared post-pass (the MAP prior) must apply in the batched path too.
  NclConfig config;
  config.concept_prior[f.onto.FindByCode("N18.9")] = 1.0;
  config.default_prior = 1e-12;
  NclLinker linker(f.model.get(), f.candidates.get(), nullptr, config);

  EXPECT_TRUE(linker.LinkBatchDetailed({}).empty());

  auto batch = linker.LinkBatchDetailed({{"ckd", "5"}});
  auto expected = linker.LinkDetailed({"ckd", "5"});
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(batch[0].size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(batch[0][i].concept_id, expected[i].concept_id);
    EXPECT_EQ(batch[0][i].log_prob, expected[i].log_prob);
  }
}

}  // namespace
}  // namespace ncl::linking
