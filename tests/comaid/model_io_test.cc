#include "comaid/model_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>

#include "comaid/trainer.h"

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
  add("N18", {"chronic", "kidney", "disease"}, "ROOT");
  add("N18.5", {"chronic", "kidney", "disease", "stage", "5"}, "N18");
  return onto;
}

TEST(ModelIoTest, RoundTripPreservesScores) {
  ontology::Ontology onto = MakeOntology();
  ComAidConfig config;
  config.dim = 12;
  ComAidModel model(config, &onto, {{"ckd", "5"}});

  std::vector<std::pair<ontology::ConceptId, std::vector<std::string>>> data = {
      {onto.FindByCode("N18.5"), {"ckd", "5"}}};
  TrainConfig tc;
  tc.epochs = 5;
  ComAidTrainer trainer(tc);
  trainer.Train(&model, MakeTrainingPairs(model, data));

  std::string path = testing::TempDir() + "/ncl_model_io_test.bin";
  ASSERT_TRUE(SaveModel(model, path).ok());

  auto loaded = LoadModel(path, &onto);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->config().dim, 12u);
  EXPECT_EQ((*loaded)->vocabulary().size(), model.vocabulary().size());
  auto c = onto.FindByCode("N18.5");
  EXPECT_NEAR((*loaded)->ScoreLogProb(c, {"ckd", "5"}),
              model.ScoreLogProb(c, {"ckd", "5"}), 1e-9);
  std::remove(path.c_str());
  std::remove((path + ".params").c_str());
}

TEST(ModelIoTest, RoundTripPreservesAblationFlags) {
  ontology::Ontology onto = MakeOntology();
  ComAidConfig config;
  config.dim = 8;
  config.text_attention = false;
  ComAidModel model(config, &onto, {});
  std::string path = testing::TempDir() + "/ncl_model_io_flags_test.bin";
  ASSERT_TRUE(SaveModel(model, path).ok());
  auto loaded = LoadModel(path, &onto);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE((*loaded)->config().text_attention);
  EXPECT_TRUE((*loaded)->config().structural_attention);
  std::remove(path.c_str());
  std::remove((path + ".params").c_str());
}

TEST(ModelIoTest, ChangedOntologyDetected) {
  ontology::Ontology onto = MakeOntology();
  ComAidConfig config;
  config.dim = 8;
  ComAidModel model(config, &onto, {});
  std::string path = testing::TempDir() + "/ncl_model_io_mismatch_test.bin";
  ASSERT_TRUE(SaveModel(model, path).ok());

  // A different ontology (extra description words) must be rejected.
  ontology::Ontology other;
  ASSERT_TRUE(other.AddConcept("X01", {"totally", "different", "words"},
                               ontology::kRootConcept).ok());
  auto loaded = LoadModel(path, &other);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
  std::remove((path + ".params").c_str());
}

TEST(ModelIoTest, MissingFileFails) {
  ontology::Ontology onto = MakeOntology();
  auto loaded = LoadModel("/nonexistent-xyz/model.bin", &onto);
  EXPECT_FALSE(loaded.ok());
}

// Forged checkpoints: one u64 field overwritten in an otherwise valid file.
// Each must come back as a Status, never an abort or a huge allocation.
//
// model.bin: magic u32 | version u32 | dim u64 | beta u64 | text u32 |
//            structural u32 | seed u64 | vocabulary count u64 | words...
// .params:   magic u32 | version u32 | count u64 | first name length u64 ...
constexpr std::streamoff kDimOffset = 8;
constexpr std::streamoff kBetaOffset = 16;
constexpr std::streamoff kVocabCountOffset = 40;
constexpr std::streamoff kFirstParamNameOffset = 16;

/// Saves a small model (structural attention on, beta 2) under `name`.
std::string SaveCheckpoint(const ontology::Ontology& onto,
                           const std::string& name) {
  ComAidConfig config;
  config.dim = 8;
  ComAidModel model(config, &onto, {{"ckd", "5"}});
  std::string path = testing::TempDir() + "/ncl_model_io_" + name + ".bin";
  EXPECT_TRUE(SaveModel(model, path).ok());
  return path;
}

void PatchU64(const std::string& file, std::streamoff offset, uint64_t value) {
  std::fstream out(file, std::ios::in | std::ios::out | std::ios::binary);
  out.seekp(offset);
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
  ASSERT_TRUE(out.good()) << file;
}

/// Loads `path` and returns the status code, removing the checkpoint.
StatusCode LoadCode(const std::string& path, const ontology::Ontology& onto) {
  auto loaded = LoadModel(path, &onto);
  std::remove(path.c_str());
  std::remove((path + ".params").c_str());
  return loaded.status().code();
}

TEST(ModelIoTest, ForgedNonFiniteWeightIsRejected) {
  // One NaN weight used to load silently and score every candidate NaN.
  ontology::Ontology onto = MakeOntology();
  const std::string path = SaveCheckpoint(onto, "non_finite");
  const std::string params = path + ".params";
  uint64_t name_length = 0;
  {
    std::ifstream in(params, std::ios::binary);
    in.seekg(kFirstParamNameOffset);
    in.read(reinterpret_cast<char*>(&name_length), sizeof(name_length));
    ASSERT_TRUE(in.good());
  }
  // The first parameter's first value follows its name, rows and cols.
  const std::streamoff first_value = kFirstParamNameOffset + 8 +
                                     static_cast<std::streamoff>(name_length) +
                                     16;
  {
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::fstream out(params, std::ios::in | std::ios::out | std::ios::binary);
    out.seekp(first_value);
    out.write(reinterpret_cast<const char*>(&nan), sizeof(nan));
    ASSERT_TRUE(out.good());
  }
  EXPECT_EQ(LoadCode(path, onto), StatusCode::kIOError);
}

TEST(ModelIoTest, ForgedVocabularyCountIsRejected) {
  ontology::Ontology onto = MakeOntology();
  const std::string path = SaveCheckpoint(onto, "vocab_count");
  PatchU64(path, kVocabCountOffset, uint64_t{1} << 40);
  EXPECT_EQ(LoadCode(path, onto), StatusCode::kIOError);
}

TEST(ModelIoTest, ForgedParameterNameLengthIsRejected) {
  ontology::Ontology onto = MakeOntology();
  const std::string path = SaveCheckpoint(onto, "name_length");
  PatchU64(path + ".params", kFirstParamNameOffset, uint64_t{1} << 40);
  EXPECT_EQ(LoadCode(path, onto), StatusCode::kIOError);
}

TEST(ModelIoTest, ForgedZeroDimIsRejected) {
  ontology::Ontology onto = MakeOntology();
  const std::string path = SaveCheckpoint(onto, "dim_zero");
  PatchU64(path, kDimOffset, 0);
  EXPECT_EQ(LoadCode(path, onto), StatusCode::kInvalidArgument);
}

TEST(ModelIoTest, ForgedDimTooLargeForParamsIsRejected) {
  ontology::Ontology onto = MakeOntology();
  const std::string path = SaveCheckpoint(onto, "dim_large");
  PatchU64(path, kDimOffset, uint64_t{1} << 40);
  EXPECT_EQ(LoadCode(path, onto), StatusCode::kInvalidArgument);
}

TEST(ModelIoTest, ForgedNegativeBetaIsRejected) {
  ontology::Ontology onto = MakeOntology();
  const std::string path = SaveCheckpoint(onto, "beta_negative");
  // SaveModel widens the int32 beta, so -1 is stored as all ones.
  PatchU64(path, kBetaOffset, static_cast<uint64_t>(int64_t{-1}));
  EXPECT_EQ(LoadCode(path, onto), StatusCode::kInvalidArgument);
}

TEST(ModelIoTest, ForgedZeroBetaWithStructuralAttentionIsRejected) {
  ontology::Ontology onto = MakeOntology();
  const std::string path = SaveCheckpoint(onto, "beta_zero");
  PatchU64(path, kBetaOffset, 0);
  EXPECT_EQ(LoadCode(path, onto), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ncl::comaid
