#include "nn/parameter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

namespace ncl::nn {
namespace {

TEST(ParameterStoreTest, CreateAndFind) {
  ParameterStore store;
  Rng rng(1);
  Parameter* w = store.Create("w", 2, 3, Init::kXavier, rng);
  EXPECT_EQ(store.Find("w"), w);
  EXPECT_EQ(store.Find("missing"), nullptr);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.NumWeights(), 6u);
  EXPECT_EQ(w->grad.rows(), 2u);
  EXPECT_EQ(w->grad.cols(), 3u);
}

TEST(ParameterStoreTest, InitKinds) {
  ParameterStore store;
  Rng rng(2);
  Parameter* zero = store.Create("zero", 3, 3, Init::kZero, rng);
  EXPECT_EQ(zero->value.Sum(), 0.0);
  Parameter* small = store.Create("small", 10, 10, Init::kSmallUniform, rng);
  for (size_t i = 0; i < small->value.size(); ++i) {
    EXPECT_LE(std::abs(small->value[i]), 0.08f);
  }
}

TEST(ParameterStoreTest, ZeroGrads) {
  ParameterStore store;
  Rng rng(3);
  Parameter* w = store.Create("w", 2, 2, Init::kXavier, rng);
  w->grad.Fill(5.0f);
  store.ZeroGrads();
  EXPECT_EQ(w->grad.Sum(), 0.0);
}

TEST(ParameterStoreTest, GradNormAndClipping) {
  ParameterStore store;
  Rng rng(4);
  Parameter* a = store.Create("a", 1, 2, Init::kZero, rng);
  Parameter* b = store.Create("b", 1, 2, Init::kZero, rng);
  a->grad = Matrix::FromValues(1, 2, {3.0f, 0.0f});
  b->grad = Matrix::FromValues(1, 2, {0.0f, 4.0f});
  EXPECT_DOUBLE_EQ(store.GradNorm(), 5.0);
  store.ClipGradients(2.5);
  EXPECT_NEAR(store.GradNorm(), 2.5, 1e-6);
  EXPECT_NEAR(a->grad[0], 1.5f, 1e-6);
  EXPECT_NEAR(b->grad[1], 2.0f, 1e-6);
}

TEST(ParameterStoreTest, ClipBelowThresholdIsNoOp) {
  ParameterStore store;
  Rng rng(5);
  Parameter* a = store.Create("a", 1, 1, Init::kZero, rng);
  a->grad[0] = 1.0f;
  store.ClipGradients(10.0);
  EXPECT_EQ(a->grad[0], 1.0f);
}

TEST(ParameterStoreTest, SaveLoadRoundTrip) {
  std::string path = testing::TempDir() + "/ncl_params_test.bin";
  Rng rng(6);
  ParameterStore original;
  original.Create("layer.W", 3, 4, Init::kXavier, rng);
  original.Create("layer.b", 3, 1, Init::kSmallUniform, rng);
  ASSERT_TRUE(original.Save(path).ok());

  ParameterStore restored;
  Rng rng2(999);  // different init — must be overwritten by Load
  restored.Create("layer.W", 3, 4, Init::kXavier, rng2);
  restored.Create("layer.b", 3, 1, Init::kSmallUniform, rng2);
  ASSERT_TRUE(restored.Load(path).ok());

  for (const char* name : {"layer.W", "layer.b"}) {
    const Parameter* a = original.Find(name);
    const Parameter* b = restored.Find(name);
    ASSERT_TRUE(a && b);
    for (size_t i = 0; i < a->value.size(); ++i) {
      EXPECT_EQ(a->value[i], b->value[i]) << name;
    }
  }
  std::remove(path.c_str());
}

TEST(ParameterStoreTest, LoadMissingParameterFails) {
  std::string path = testing::TempDir() + "/ncl_params_missing_test.bin";
  Rng rng(7);
  ParameterStore original;
  original.Create("only.in.file", 2, 2, Init::kXavier, rng);
  ASSERT_TRUE(original.Save(path).ok());

  ParameterStore other;
  other.Create("different.name", 2, 2, Init::kXavier, rng);
  EXPECT_FALSE(other.Load(path).ok());
  std::remove(path.c_str());
}

TEST(ParameterStoreTest, LoadShapeMismatchFails) {
  std::string path = testing::TempDir() + "/ncl_params_shape_test.bin";
  Rng rng(8);
  ParameterStore original;
  original.Create("w", 2, 2, Init::kXavier, rng);
  ASSERT_TRUE(original.Save(path).ok());

  ParameterStore other;
  other.Create("w", 3, 3, Init::kXavier, rng);
  EXPECT_FALSE(other.Load(path).ok());
  std::remove(path.c_str());
}

TEST(ParameterStoreTest, LoadRejectsNonFiniteValue) {
  // One forged value in an otherwise valid checkpoint: a NaN or infinity
  // would score every candidate NaN (or, in a vector lane, a finite
  // garbage value), so Load refuses it and names the parameter.
  std::string path = testing::TempDir() + "/ncl_params_non_finite_test.bin";
  Rng rng(11);
  ParameterStore original;
  original.Create("layer.W", 3, 4, Init::kXavier, rng);
  // magic u32 | version u32 | count u64 | name length u64 | "layer.W" |
  // rows u64 | cols u64 | values; forge the sixth value.
  const std::streamoff value_offset = 4 + 4 + 8 + 8 + 7 + 8 + 8 + 5 * 4;
  const float inf = std::numeric_limits<float>::infinity();
  for (float bad : {std::numeric_limits<float>::quiet_NaN(), inf, -inf}) {
    ASSERT_TRUE(original.Save(path).ok());
    {
      std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
      file.seekp(value_offset);
      file.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
      ASSERT_TRUE(file.good());
    }
    ParameterStore restored;
    restored.Create("layer.W", 3, 4, Init::kXavier, rng);
    Status status = restored.Load(path);
    EXPECT_EQ(status.code(), StatusCode::kIOError) << bad;
    EXPECT_NE(status.ToString().find("layer.W"), std::string::npos)
        << status.ToString();
  }
  std::remove(path.c_str());
}

TEST(ParameterStoreTest, CopyValuesFrom) {
  Rng rng(9);
  ParameterStore src;
  src.Create("w", 2, 2, Init::kXavier, rng);
  ParameterStore dst;
  dst.Create("w", 2, 2, Init::kZero, rng);
  ASSERT_TRUE(dst.CopyValuesFrom(src).ok());
  EXPECT_EQ(dst.Find("w")->value[3], src.Find("w")->value[3]);
}

TEST(ParameterStoreTest, CopyValuesMismatchFails) {
  Rng rng(10);
  ParameterStore src;
  src.Create("w", 2, 2, Init::kXavier, rng);
  ParameterStore dst;
  dst.Create("v", 2, 2, Init::kZero, rng);
  EXPECT_FALSE(dst.CopyValuesFrom(src).ok());
}

}  // namespace
}  // namespace ncl::nn
