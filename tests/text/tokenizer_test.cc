#include "text/tokenizer.h"

#include <gtest/gtest.h>

#include "util/string_util.h"

namespace ncl::text {
namespace {

TEST(NormalizeTest, LowercasesAndStripsSpecials) {
  EXPECT_EQ(Normalize("Chronic kidney disease, stage 5"),
            "chronic kidney disease stage 5");
  EXPECT_EQ(Normalize("Dermatitis; unspecified!"), "dermatitis unspecified");
}

TEST(NormalizeTest, KeepsIcdCodesAndPercents) {
  EXPECT_EQ(Normalize("D50.0 noted"), "d50.0 noted");
  EXPECT_EQ(Normalize("hypertension ef 75%"), "hypertension ef 75%");
}

TEST(NormalizeTest, CollapsesWhitespaceRuns) {
  EXPECT_EQ(Normalize("a   b\t\tc"), "a b c");
  EXPECT_EQ(Normalize("   leading"), "leading");
}

TEST(NormalizeTest, EmptyAndPunctuationOnly) {
  EXPECT_EQ(Normalize(""), "");
  EXPECT_EQ(Normalize(",;!"), "");
}

TEST(TokenizeTest, SplitsNormalizedText) {
  EXPECT_EQ(Tokenize("Iron-Deficiency Anemia"),
            (std::vector<std::string>{"iron", "deficiency", "anemia"}));
}

TEST(TokenizeTest, StripsSentenceDots) {
  // "anemia." at the end of a sentence must not keep the dot.
  EXPECT_EQ(Tokenize("vitamin c def. anemia."),
            (std::vector<std::string>{"vitamin", "c", "def", "anemia"}));
}

TEST(TokenizeTest, PreservesInternalDots) {
  EXPECT_EQ(Tokenize("code D50.0 here"),
            (std::vector<std::string>{"code", "d50.0", "here"}));
}

TEST(TokenizeTest, EmptyInputYieldsNoTokens) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize(" ,;! ").empty());
}

TEST(CharNgramsPaddedTest, BoundaryPaddingMarksAffixes) {
  // "#ab#" windows: "#ab", "ab#" — prefix and suffix grams are distinct
  // from interior grams of longer words containing "ab".
  EXPECT_EQ(CharNgramsPadded("ab", 3), (std::vector<std::string>{"#ab", "ab#"}));
  EXPECT_EQ(CharNgramsPadded("anemia", 3).front(), "#an");
  EXPECT_EQ(CharNgramsPadded("anemia", 3).back(), "ia#");
}

TEST(CharNgramsPaddedTest, TokenShorterThanNSurvivesAsSingleGram) {
  // A 1-char token still produces a retrievable term ("#5#"), unlike the
  // unpadded variant where it would be indistinguishable from a substring.
  EXPECT_EQ(CharNgramsPadded("5", 3), (std::vector<std::string>{"#5#"}));
  EXPECT_EQ(CharNgramsPadded("5", 4), (std::vector<std::string>{"#5#"}));
}

TEST(CharNgramsPaddedTest, GramCountIsLengthMinusNPlusThree) {
  // len(padded) = len + 2, so count = len + 2 - n + 1 for len + 2 > n.
  EXPECT_EQ(CharNgramsPadded("anemia", 3).size(), 6u);
  EXPECT_EQ(CharNgramsPadded("abc", 3).size(), 3u);
}

TEST(CharNgramsPaddedTest, DegenerateInputs) {
  EXPECT_TRUE(CharNgramsPadded("", 3).empty());
  EXPECT_TRUE(CharNgramsPadded("abc", 0).empty());
}

// Property: Tokenize is idempotent through joining its tokens with spaces.
class TokenizeRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(TokenizeRoundTrip, Stable) {
  auto once = Tokenize(GetParam());
  auto twice = Tokenize(Join(once, " "));
  EXPECT_EQ(once, twice);
}

INSTANTIATE_TEST_SUITE_P(
    Snippets, TokenizeRoundTrip,
    ::testing::Values("Chronic kidney disease, stage 5",
                      "symptomatic anemia  from menorrhagia",
                      "iron def anemia - from menorrhagia",
                      "fe def anemia 2' to menorrhagia",
                      "HYPERTENSION EF 75%", "d50.0", "ckd 5"));

}  // namespace
}  // namespace ncl::text
