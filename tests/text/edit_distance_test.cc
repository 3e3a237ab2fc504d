#include "text/edit_distance.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "util/random.h"

namespace ncl::text {
namespace {

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(Levenshtein("", ""), 0u);
  EXPECT_EQ(Levenshtein("abc", "abc"), 0u);
  EXPECT_EQ(Levenshtein("abc", ""), 3u);
  EXPECT_EQ(Levenshtein("", "abc"), 3u);
  EXPECT_EQ(Levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(Levenshtein("neuropathy", "neuropaty"), 1u);  // the paper's typo
  EXPECT_EQ(Levenshtein("flaw", "lawn"), 2u);
}

TEST(LevenshteinTest, Symmetric) {
  EXPECT_EQ(Levenshtein("anemia", "anaemia"), Levenshtein("anaemia", "anemia"));
}

TEST(BoundedLevenshteinTest, AgreesWithExactWithinBound) {
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 5), 3u);
  EXPECT_EQ(BoundedLevenshtein("abc", "abc", 0), 0u);
}

TEST(BoundedLevenshteinTest, SaturatesAboveBound) {
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 2), 3u);  // = bound + 1
  EXPECT_EQ(BoundedLevenshtein("aaaa", "bbbbbbbb", 2), 3u);
}

TEST(BoundedLevenshteinTest, LengthGapShortCircuits) {
  // |len difference| > bound: must bail out immediately.
  EXPECT_EQ(BoundedLevenshtein("a", "aaaaaaaa", 3), 4u);
}

// Property: triangle inequality holds for Levenshtein on random strings.
class EditDistanceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EditDistanceProperty, TriangleInequality) {
  Rng rng(GetParam());
  const std::string alphabet = "abcd";
  auto random_string = [&] {
    std::string s;
    size_t n = rng.Index(8);
    for (size_t i = 0; i < n; ++i) s += alphabet[rng.Index(alphabet.size())];
    return s;
  };
  for (int trial = 0; trial < 50; ++trial) {
    std::string a = random_string(), b = random_string(), c = random_string();
    EXPECT_LE(Levenshtein(a, c), Levenshtein(a, b) + Levenshtein(b, c))
        << a << " " << b << " " << c;
  }
}

TEST_P(EditDistanceProperty, BoundedMatchesExact) {
  Rng rng(GetParam() + 1000);
  const std::string alphabet = "abc";
  auto random_string = [&] {
    std::string s;
    size_t n = rng.Index(10);
    for (size_t i = 0; i < n; ++i) s += alphabet[rng.Index(alphabet.size())];
    return s;
  };
  for (int trial = 0; trial < 100; ++trial) {
    std::string a = random_string(), b = random_string();
    size_t exact = Levenshtein(a, b);
    size_t bounded = BoundedLevenshtein(a, b, 20);
    EXPECT_EQ(bounded, exact) << a << " vs " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistanceProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace ncl::text
