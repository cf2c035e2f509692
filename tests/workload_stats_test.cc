#include "core/workload_stats.h"

#include <gtest/gtest.h>

namespace ps2 {
namespace {

class WorkloadStatsTest : public ::testing::Test {
 protected:
  TermId T(const std::string& s) { return vocab_.Intern(s); }
  Vocabulary vocab_;
};

TEST_F(WorkloadStatsTest, BoundsCoverObjectsAndQueries) {
  WorkloadSample s;
  s.objects.push_back(SpatioTextualObject::FromTerms(1, Point{5, 5}, {T("a")}));
  STSQuery q;
  q.id = 1;
  q.expr = BoolExpr::And({T("a")});
  q.region = Rect(-10, 0, 0, 20);
  s.inserts.push_back(q);
  const Rect b = s.Bounds();
  EXPECT_TRUE(b.Contains(Point{5, 5}));
  EXPECT_TRUE(b.Contains(q.region));
}

TEST_F(WorkloadStatsTest, EmptySampleEmptyBounds) {
  WorkloadSample s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.Bounds().empty());
}

TEST_F(WorkloadStatsTest, TermStatsCountsObjectAndRoutingFrequencies) {
  const TermId a = T("a"), b = T("b"), c = T("c");
  vocab_.AddCount(a, 10);
  vocab_.AddCount(b, 1);
  WorkloadSample s;
  s.objects.push_back(SpatioTextualObject::FromTerms(1, Point{0, 0}, {a, b}));
  s.objects.push_back(SpatioTextualObject::FromTerms(2, Point{0, 0}, {a}));
  STSQuery q;
  q.id = 1;
  q.expr = BoolExpr::And({a, b});
  q.expr.ChooseRouting(vocab_);  // routing term = least frequent = b
  q.region = Rect(0, 0, 1, 1);
  s.inserts.push_back(q);
  const TermStats stats = TermStats::Compute(s);
  EXPECT_EQ(stats.ObjectFreq(a), 2u);
  EXPECT_EQ(stats.ObjectFreq(b), 1u);
  EXPECT_EQ(stats.QueryRoutingFreq(b), 1u);
  EXPECT_EQ(stats.QueryRoutingFreq(a), 0u);
  EXPECT_EQ(stats.ObjectFreq(c), 0u);
}

TEST_F(WorkloadStatsTest, AccumulateVocabularyCounts) {
  const TermId a = T("a");
  WorkloadSample s;
  s.objects.push_back(SpatioTextualObject::FromTerms(1, Point{0, 0}, {a}));
  s.objects.push_back(SpatioTextualObject::FromTerms(2, Point{0, 0}, {a}));
  AccumulateVocabularyCounts(s, vocab_);
  EXPECT_EQ(vocab_.Count(a), 2u);
}

}  // namespace
}  // namespace ps2
