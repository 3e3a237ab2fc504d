#include "pretrain/embeddings.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace ncl::pretrain {
namespace {

WordEmbeddings MakeToyEmbeddings() {
  text::Vocabulary vocab;
  vocab.Add("right", 5);   // id 0: (1, 0)
  vocab.Add("up", 3);      // id 1: (0, 1)
  vocab.Add("mostly", 2);  // id 2: (0.9, 0.1)
  vocab.Add("zero", 1);    // id 3: (0, 0)
  nn::Matrix vectors = nn::Matrix::FromValues(
      4, 2, {1.0f, 0.0f, 0.0f, 1.0f, 0.9f, 0.1f, 0.0f, 0.0f});
  return WordEmbeddings(std::move(vocab), std::move(vectors));
}

TEST(WordEmbeddingsTest, CosineKnownValues) {
  WordEmbeddings emb = MakeToyEmbeddings();
  EXPECT_NEAR(emb.Cosine(0, 0), 1.0, 1e-9);
  EXPECT_NEAR(emb.Cosine(0, 1), 0.0, 1e-9);
  EXPECT_GT(emb.Cosine(0, 2), 0.99);
}

TEST(WordEmbeddingsTest, ZeroVectorCosineIsZero) {
  WordEmbeddings emb = MakeToyEmbeddings();
  EXPECT_EQ(emb.Cosine(0, 3), 0.0);
}

TEST(WordEmbeddingsTest, NearestExcludesSelf) {
  WordEmbeddings emb = MakeToyEmbeddings();
  auto nearest = emb.Nearest(0, 10);
  for (const auto& [id, score] : nearest) EXPECT_NE(id, 0);
}

TEST(WordEmbeddingsTest, NearestOrdering) {
  WordEmbeddings emb = MakeToyEmbeddings();
  auto nearest = emb.Nearest(0, 2);
  ASSERT_EQ(nearest.size(), 2u);
  EXPECT_EQ(emb.vocabulary().WordOf(nearest[0].first), "mostly");
}

TEST(WordEmbeddingsTest, NearestWithFilter) {
  WordEmbeddings emb = MakeToyEmbeddings();
  auto nearest = emb.Nearest(0, 5, [](text::WordId id) { return id == 1; });
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_EQ(nearest[0].first, 1);
}

TEST(WordEmbeddingsTest, NearestKLimits) {
  WordEmbeddings emb = MakeToyEmbeddings();
  EXPECT_EQ(emb.Nearest(0, 1).size(), 1u);
  EXPECT_EQ(emb.Nearest(0, 100).size(), 3u);  // everything but self
}

TEST(WordEmbeddingsTest, VectorOfReturnsRow) {
  WordEmbeddings emb = MakeToyEmbeddings();
  const float* v = emb.VectorOf(2);
  EXPECT_FLOAT_EQ(v[0], 0.9f);
  EXPECT_FLOAT_EQ(v[1], 0.1f);
}

TEST(WordEmbeddingsTest, SaveLoadRoundTrip) {
  WordEmbeddings emb = MakeToyEmbeddings();
  std::string path = testing::TempDir() + "/ncl_embeddings_test.bin";
  ASSERT_TRUE(emb.Save(path).ok());
  auto loaded = WordEmbeddings::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), emb.size());
  EXPECT_EQ(loaded->dim(), emb.dim());
  EXPECT_EQ(loaded->vocabulary().Lookup("mostly"), 2);
  EXPECT_EQ(loaded->vocabulary().CountOf(0), 5u);
  EXPECT_FLOAT_EQ(loaded->VectorOf(2)[0], 0.9f);
  EXPECT_NEAR(loaded->Cosine(0, 2), emb.Cosine(0, 2), 1e-9);
  std::remove(path.c_str());
}

TEST(WordEmbeddingsTest, LoadMissingFileFails) {
  auto result = WordEmbeddings::Load("/nonexistent-xyz/emb.bin");
  EXPECT_FALSE(result.ok());
}

// Forged embeddings files: one field overwritten in an otherwise valid
// file. Each must come back as an IOError, never a crash, an abort or a
// huge allocation.
//
// embeddings.bin: magic u32 | count u64 | width u64 | per word: length u64,
//                 bytes, count u64, width floats.
constexpr std::streamoff kCountOffset = 4;
constexpr std::streamoff kWidthOffset = 12;
constexpr std::streamoff kFirstWordLengthOffset = 20;

std::string SaveToy(const std::string& name) {
  std::string path = testing::TempDir() + "/ncl_embeddings_" + name + ".bin";
  EXPECT_TRUE(MakeToyEmbeddings().Save(path).ok());
  return path;
}

void PatchU64(const std::string& file, std::streamoff offset, uint64_t value) {
  std::fstream out(file, std::ios::in | std::ios::out | std::ios::binary);
  out.seekp(offset);
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
  ASSERT_TRUE(out.good()) << file;
}

/// Loads `path` and returns the status code, removing the file.
StatusCode LoadCode(const std::string& path) {
  auto result = WordEmbeddings::Load(path);
  std::remove(path.c_str());
  return result.status().code();
}

TEST(WordEmbeddingsTest, ForgedWrappingDimensionsAreRejected) {
  // count * width wraps to 0 in 64 bits.
  const std::string path = SaveToy("wrap");
  PatchU64(path, kCountOffset, uint64_t{1} << 32);
  PatchU64(path, kWidthOffset, uint64_t{1} << 32);
  EXPECT_EQ(LoadCode(path), StatusCode::kIOError);
}

TEST(WordEmbeddingsTest, ForgedHugeCountIsRejected) {
  const std::string path = SaveToy("count");
  PatchU64(path, kCountOffset, uint64_t{1} << 40);
  EXPECT_EQ(LoadCode(path), StatusCode::kIOError);
}

TEST(WordEmbeddingsTest, ForgedHugeWordLengthIsRejected) {
  const std::string path = SaveToy("word_length");
  PatchU64(path, kFirstWordLengthOffset, uint64_t{1} << 40);
  EXPECT_EQ(LoadCode(path), StatusCode::kIOError);
}

TEST(WordEmbeddingsTest, ForgedNonFiniteVectorIsRejected) {
  // The first word ("right", 5 bytes) stores its count, then its vector.
  const std::streamoff first_value = kFirstWordLengthOffset + 8 + 5 + 8;
  const float inf = std::numeric_limits<float>::infinity();
  for (float bad : {std::numeric_limits<float>::quiet_NaN(), inf, -inf}) {
    const std::string path = SaveToy("non_finite");
    {
      std::fstream out(path, std::ios::in | std::ios::out | std::ios::binary);
      out.seekp(first_value + static_cast<std::streamoff>(sizeof(float)));
      out.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
      ASSERT_TRUE(out.good());
    }
    EXPECT_EQ(LoadCode(path), StatusCode::kIOError) << bad;
  }
}

TEST(WordEmbeddingsTest, RepeatedWordIsRejected) {
  // Two equal-length words, so renaming the second to the first keeps every
  // length field valid.
  text::Vocabulary vocab;
  vocab.Add("aa");
  vocab.Add("bb");
  const std::string path = testing::TempDir() + "/ncl_embeddings_repeat.bin";
  ASSERT_TRUE(WordEmbeddings(std::move(vocab), nn::Matrix(2, 1, 1.0f))
                  .Save(path)
                  .ok());
  std::stringstream bytes;
  bytes << std::ifstream(path, std::ios::binary).rdbuf();
  std::string file = bytes.str();
  const size_t second = file.find("bb");
  ASSERT_NE(second, std::string::npos);
  file.replace(second, 2, "aa");
  std::ofstream(path, std::ios::binary) << file;
  EXPECT_EQ(LoadCode(path), StatusCode::kIOError);
}

}  // namespace
}  // namespace ncl::pretrain
