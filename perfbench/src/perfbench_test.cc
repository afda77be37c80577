// Tests of the benchmark's own helpers: tail-percentile choice, span self
// time, the result checker and the metrics-exposition reader.

#include <gtest/gtest.h>

#include "checker.h"
#include "metrics_text.h"
#include "spans.h"
#include "stats_util.h"

namespace perfbench {
namespace {

using presto::Value;

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10);
  EXPECT_EQ(SamplesBeyond(99, 90), 9);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10);
  EXPECT_EQ(SamplesBeyond(10000, 99.9), 10);
  EXPECT_FALSE(HighestSupportedPercentile(19).has_value());
  EXPECT_EQ(*HighestSupportedPercentile(20), 50);
  EXPECT_EQ(*HighestSupportedPercentile(99), 50);
  EXPECT_EQ(*HighestSupportedPercentile(100), 90);
  EXPECT_EQ(*HighestSupportedPercentile(999), 90);
  EXPECT_EQ(*HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(*HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(PercentileLabel(99.9), "p99.9");
}

TEST(TailPercentile, InterpolatesBetweenRanks) {
  std::vector<double> samples;
  for (int i = 1; i <= 101; ++i) samples.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(samples, 50), 51);
  EXPECT_DOUBLE_EQ(Percentile(samples, 90), 91);
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, 50), 1.5);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0);
}

Span MakeSpan(int64_t id, int64_t parent, const char* name, int64_t start,
              int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsUnionOfChildrenClippedToParent) {
  std::vector<Span> spans = {
      MakeSpan(1, 0, "statement", 0, 100),
      MakeSpan(2, 1, "execute", 0, 30),
      MakeSpan(3, 2, "planning", 5, 15),    // nested two deep
      MakeSpan(4, 1, "fetch", 30, 80),
      MakeSpan(5, 1, "execution", 20, 120),  // overlaps and outlives parent
      MakeSpan(6, 4, "decode", 40, 50),
      MakeSpan(7, 4, "decode", 45, 60),      // overlaps its sibling
  };
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 0);   // children cover [0, 100]
  EXPECT_EQ(self[1], 20);  // 30 - planning 10
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 30);  // 50 - union [40, 60]
  EXPECT_EQ(self[4], 100);
  EXPECT_EQ(self[5], 10);
  EXPECT_EQ(self[6], 15);

  auto totals = TotalsByName(spans);
  EXPECT_EQ(totals["decode"].count, 2);
  EXPECT_EQ(totals["decode"].self_ns, 25);
  EXPECT_EQ(totals["statement"].total_ns, 100);
}

TEST(SelfTime, GapsBetweenChildrenStayWithParent) {
  std::vector<Span> spans = {
      MakeSpan(1, 0, "statement", 0, 100),
      MakeSpan(2, 1, "execute", 10, 20),
      MakeSpan(3, 1, "fetch", 50, 60),
  };
  EXPECT_EQ(SelfTimes(spans)[0], 80);
}

TEST(SpanRecorder, AssignsIdsAndKeepsParents) {
  SpanRecorder recorder;
  int64_t root = recorder.Add(0, "statement", "q1", 0, 10);
  int64_t child = recorder.Add(root, "execute", "q1", 0, 4);
  auto spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].id, child);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].query_id, "q1");
  EXPECT_NE(SpansToJson(spans).find("\"self_ns\":6"), std::string::npos);
}

std::vector<Row> Answer() {
  return {{Value::Bigint(1), Value::Double(10.5)},
          {Value::Bigint(2), Value::Double(20.25)},
          {Value::Bigint(3), Value::Null(presto::TypeKind::kDouble)}};
}

TEST(Checker, AcceptsSameRowsInAnyOrderWhenUnordered) {
  Expected expected{Answer(), /*ordered=*/false};
  std::vector<Row> actual = {Answer()[2], Answer()[0], Answer()[1]};
  EXPECT_EQ(CheckRows(actual, expected), "");
}

TEST(Checker, RejectsASingleWrongRow) {
  Expected expected{Answer(), /*ordered=*/false};
  std::vector<Row> actual = Answer();
  actual[1][0] = Value::Bigint(4);
  EXPECT_NE(CheckRows(actual, expected), "");
  actual = Answer();
  actual[0][1] = Value::Double(10.5001);
  EXPECT_NE(CheckRows(actual, expected), "");
  actual = Answer();
  actual[2][1] = Value::Double(0);  // NULL expected
  EXPECT_NE(CheckRows(actual, expected), "");
}

TEST(Checker, RejectsMissingOrExtraRows) {
  Expected expected{Answer(), /*ordered=*/false};
  std::vector<Row> actual = Answer();
  actual.pop_back();
  EXPECT_NE(CheckRows(actual, expected), "");
  actual = Answer();
  actual.push_back(Answer()[0]);
  EXPECT_NE(CheckRows(actual, expected), "");
}

TEST(Checker, OrderedAnswersMustKeepOrder) {
  Expected expected{Answer(), /*ordered=*/true};
  std::vector<Row> actual = {Answer()[1], Answer()[0], Answer()[2]};
  EXPECT_NE(CheckRows(actual, expected), "");
  EXPECT_EQ(CheckRows(Answer(), expected), "");
}

TEST(Checker, ToleratesDoubleRoundingOnly) {
  Expected expected{{{Value::Double(1e6)}}, false};
  EXPECT_EQ(CheckRows({{Value::Double(1e6 + 1e-5)}}, expected), "");
  EXPECT_NE(CheckRows({{Value::Double(1e6 + 1)}}, expected), "");
  // A BIGINT answer from the engine matches an equal DOUBLE expectation.
  EXPECT_EQ(CheckRows({{Value::Bigint(1000000)}}, expected), "");
}

TEST(MetricsText, SumsEveryLabelSetOfOneName) {
  std::string text =
      "# HELP presto_x help\n"
      "# TYPE presto_x counter\n"
      "presto_x{worker=\"w0\"} 3\n"
      "presto_x{worker=\"w1\"} 4.5\n"
      "presto_x_total 100\n"
      "presto_y 7\n";
  EXPECT_DOUBLE_EQ(SumSamples(text, "presto_x"), 7.5);
  EXPECT_DOUBLE_EQ(SumSamples(text, "presto_y"), 7);
  EXPECT_DOUBLE_EQ(SumSamples(text, "presto_z"), 0);
}

}  // namespace
}  // namespace perfbench
