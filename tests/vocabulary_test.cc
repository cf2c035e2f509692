#include "text/vocabulary.h"

#include <gtest/gtest.h>

namespace ps2 {
namespace {

TEST(VocabularyTest, InternIsIdempotent) {
  Vocabulary v;
  const TermId a = v.Intern("kobe");
  const TermId b = v.Intern("kobe");
  EXPECT_EQ(a, b);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.TermString(a), "kobe");
}

TEST(VocabularyTest, LookupUnknown) {
  Vocabulary v;
  v.Intern("a");
  EXPECT_EQ(v.Lookup("b"), kInvalidTerm);
  EXPECT_NE(v.Lookup("a"), kInvalidTerm);
}

TEST(VocabularyTest, CountsAccumulate) {
  Vocabulary v;
  const TermId a = v.Intern("a");
  const TermId b = v.Intern("b");
  v.AddCount(a, 3);
  v.AddCount(b);
  EXPECT_EQ(v.Count(a), 3u);
  EXPECT_EQ(v.Count(b), 1u);
  EXPECT_EQ(v.TotalCount(), 4u);
  EXPECT_EQ(v.Count(999), 0u);  // unknown id
}

TEST(VocabularyTest, TermsByFrequencyDescending) {
  Vocabulary v;
  const TermId a = v.Intern("a");
  const TermId b = v.Intern("b");
  const TermId c = v.Intern("c");
  v.AddCount(a, 1);
  v.AddCount(b, 9);
  v.AddCount(c, 5);
  const auto order = v.TermsByFrequency();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], b);
  EXPECT_EQ(order[1], c);
  EXPECT_EQ(order[2], a);
}

TEST(VocabularyTest, IsTopFraction) {
  Vocabulary v;
  // 100 terms, counts 100..1.
  std::vector<TermId> ids;
  for (int i = 0; i < 100; ++i) {
    const TermId t = v.Intern("t" + std::to_string(i));
    v.AddCount(t, 100 - i);
    ids.push_back(t);
  }
  EXPECT_TRUE(v.IsTopFraction(ids[0], 0.01));    // rank 0 in top 1%
  EXPECT_FALSE(v.IsTopFraction(ids[1], 0.01));   // rank 1 not in top 1%
  EXPECT_TRUE(v.IsTopFraction(ids[9], 0.50));
  EXPECT_FALSE(v.IsTopFraction(ids[99], 0.50));
}

TEST(VocabularyTest, MemoryGrowsWithTerms) {
  Vocabulary v;
  const size_t empty = v.MemoryBytes();
  for (int i = 0; i < 100; ++i) v.Intern("term" + std::to_string(i));
  EXPECT_GT(v.MemoryBytes(), empty);
}

}  // namespace
}  // namespace ps2
