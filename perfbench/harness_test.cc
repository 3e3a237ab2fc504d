// Unit tests of the benchmark harness: percentiles, the correctness oracle
// and span self-time accounting. Run: python3 perfbench/run.py --self-test

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "oracle.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

using ncl::linking::ScoredCandidate;

TEST(NearestRankTest, P99OfOneHundredSixtyIsRankOneFiftyNine) {
  EXPECT_EQ(NearestRankIndex(160, 0.99), 158u);
  EXPECT_EQ(NearestRankIndex(100, 0.99), 98u);
  EXPECT_EQ(NearestRankIndex(10, 0.5), 4u);
  EXPECT_EQ(NearestRankIndex(1, 0.99), 0u);
  EXPECT_EQ(NearestRankIndex(1000, 1.0), 999u);
}

TEST(NearestRankTest, SummaryCountsSamplesBeyondP99) {
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);
  const Summary s = Summarize(values);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.0);
  EXPECT_DOUBLE_EQ(s.p99, 990.0);
  EXPECT_EQ(s.beyond_p99, 10u);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Summarize({}).n, 0u);
}

std::vector<ScoredCandidate> Ranking() {
  return {{7, -1.5, 1.5}, {3, -2.0, 2.0}, {9, -2.0, 2.0}, {4, -7.25, 7.25}};
}

TEST(OracleTest, AcceptsAWellFormedRanking) {
  EXPECT_EQ(CheckShape(Ranking(), 20), "");
  EXPECT_EQ(CheckShape({}, 20), "");
  EXPECT_EQ(CompareExact(Ranking(), Ranking()), "");
}

TEST(OracleTest, ShapeCatchesCorruptedRankings) {
  auto swapped = Ranking();
  std::swap(swapped[0], swapped[3]);
  EXPECT_NE(CheckShape(swapped, 20), "");

  auto duplicate = Ranking();
  duplicate[2].concept_id = duplicate[0].concept_id;
  EXPECT_NE(CheckShape(duplicate, 20), "");

  auto not_finite = Ranking();
  not_finite[1].log_prob = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(CheckShape(not_finite, 20), "");

  auto invalid = Ranking();
  invalid[3].concept_id = ncl::ontology::kInvalidConcept;
  EXPECT_NE(CheckShape(invalid, 20), "");

  EXPECT_NE(CheckShape(Ranking(), 3), "");
}

TEST(OracleTest, ExactComparisonCatchesReorderedOrPerturbedAnswers) {
  // Equal scores in a different order still pass the shape check; only the
  // re-derivation catches them.
  auto tie_swapped = Ranking();
  std::swap(tie_swapped[1], tie_swapped[2]);
  EXPECT_EQ(CheckShape(tie_swapped, 20), "");
  EXPECT_NE(CompareExact(tie_swapped, Ranking()), "");

  auto one_ulp = Ranking();
  one_ulp[3].log_prob = std::nextafter(one_ulp[3].log_prob, 0.0);
  EXPECT_EQ(CheckShape(one_ulp, 20), "");
  EXPECT_NE(CompareExact(one_ulp, Ranking()), "");

  auto truncated = Ranking();
  truncated.pop_back();
  EXPECT_NE(CompareExact(truncated, Ranking()), "");
}

TEST(SpansTest, SelfTimesPartitionTheRequest) {
  RequestObservation obs;
  obs.request = 1;
  obs.due_us = 0.0;
  obs.call_start_us = 10.0;
  obs.call_end_us = 1010.0;
  obs.done_us = 1020.0;
  obs.wire = true;
  obs.timings.queue_wait_us = 100.0;
  obs.timings.batch_form_us = 20.0;
  obs.timings.candgen_us = 80.0;
  obs.timings.ed_us = 500.0;
  obs.timings.rank_us = 10.0;
  obs.timings.total_us = 800.0;

  std::vector<Span> spans;
  uint64_t next_id = 1;
  AppendRequestSpans(obs, 0.25, &next_id, &spans);
  const SelfTimes self = ComputeSelfTimes(spans);
  EXPECT_DOUBLE_EQ(self.root_us, 1020.0);
  EXPECT_DOUBLE_EQ(self.self_us[static_cast<size_t>(Layer::kClient)], 20.0);
  EXPECT_DOUBLE_EQ(self.self_us[static_cast<size_t>(Layer::kNet)], 200.0);
  EXPECT_DOUBLE_EQ(self.self_us[static_cast<size_t>(Layer::kServe)], 210.0);
  EXPECT_DOUBLE_EQ(self.self_us[static_cast<size_t>(Layer::kLinking)], 30.0);
  EXPECT_DOUBLE_EQ(self.self_us[static_cast<size_t>(Layer::kText)], 60.0);
  EXPECT_DOUBLE_EQ(self.self_us[static_cast<size_t>(Layer::kComaid)], 500.0);
  double sum = 0.0;
  for (double us : self.self_us) sum += us;
  EXPECT_DOUBLE_EQ(sum, self.root_us);
}

TEST(SpansTest, InProcessRequestsHaveNoNetLayer) {
  RequestObservation obs;
  obs.request = 2;
  obs.call_start_us = 0.0;
  obs.call_end_us = 100.0;
  obs.done_us = 100.0;
  obs.timings.candgen_us = 10.0;
  obs.timings.ed_us = 70.0;
  obs.timings.total_us = 95.0;
  std::vector<Span> spans;
  uint64_t next_id = 1;
  AppendRequestSpans(obs, 0.0, &next_id, &spans);
  const SelfTimes self = ComputeSelfTimes(spans);
  EXPECT_DOUBLE_EQ(self.self_us[static_cast<size_t>(Layer::kNet)], 0.0);
  EXPECT_DOUBLE_EQ(self.self_us[static_cast<size_t>(Layer::kServe)], 20.0);
  EXPECT_DOUBLE_EQ(self.self_us[static_cast<size_t>(Layer::kText)], 10.0);
  EXPECT_DOUBLE_EQ(self.share(Layer::kComaid), 0.7);
}

}  // namespace
}  // namespace perfbench
