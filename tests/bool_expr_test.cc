#include "text/bool_expr.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace ps2 {
namespace {

class BoolExprTest : public ::testing::Test {
 protected:
  TermId T(const std::string& s) { return vocab_.Intern(s); }
  std::vector<TermId> Sorted(std::vector<TermId> v) {
    std::sort(v.begin(), v.end());
    return v;
  }
  Vocabulary vocab_;
};

TEST_F(BoolExprTest, AndSemantics) {
  const BoolExpr e = BoolExpr::And({T("a"), T("b")});
  EXPECT_TRUE(e.Matches(Sorted({T("a"), T("b"), T("c")})));
  EXPECT_FALSE(e.Matches(Sorted({T("a")})));
  EXPECT_FALSE(e.Matches(Sorted({T("c")})));
  EXPECT_FALSE(e.Matches({}));
}

TEST_F(BoolExprTest, OrSemantics) {
  const BoolExpr e = BoolExpr::Or({T("a"), T("b")});
  EXPECT_TRUE(e.Matches(Sorted({T("a")})));
  EXPECT_TRUE(e.Matches(Sorted({T("b"), T("z")})));
  EXPECT_FALSE(e.Matches(Sorted({T("z")})));
}

TEST_F(BoolExprTest, EmptyMatchesNothing) {
  BoolExpr e;
  EXPECT_TRUE(e.empty());
  EXPECT_FALSE(e.Matches(Sorted({T("a")})));
}

TEST_F(BoolExprTest, CnfDedupsAndDropsEmptyClauses) {
  const BoolExpr e = BoolExpr::Cnf({{T("a"), T("a")}, {}, {T("b")}});
  ASSERT_EQ(e.clauses().size(), 2u);
  EXPECT_EQ(e.clauses()[0].size(), 1u);
}

TEST_F(BoolExprTest, ParseAndOr) {
  const BoolExpr e = BoolExpr::Parse("kobe AND (retired OR lebron)", vocab_);
  ASSERT_FALSE(e.has_error());
  ASSERT_EQ(e.clauses().size(), 2u);
  EXPECT_TRUE(e.Matches(Sorted({T("kobe"), T("retired")})));
  EXPECT_TRUE(e.Matches(Sorted({T("kobe"), T("lebron")})));
  EXPECT_FALSE(e.Matches(Sorted({T("kobe")})));
  EXPECT_FALSE(e.Matches(Sorted({T("retired"), T("lebron")})));
}

TEST_F(BoolExprTest, ParseCaseInsensitiveOperators) {
  const BoolExpr e = BoolExpr::Parse("a and b or c", vocab_);
  ASSERT_FALSE(e.has_error());
  // "a AND (b OR c)" by precedence: OR binds tighter in our grammar
  // (clause = atom (OR atom)*), so this parses as a AND (b OR c).
  EXPECT_TRUE(e.Matches(Sorted({T("a"), T("c")})));
  EXPECT_FALSE(e.Matches(Sorted({T("a")})));
}

TEST_F(BoolExprTest, ParseDistributesOrOverAnd) {
  // (a AND b) OR c  ->  (a|c) & (b|c)
  const BoolExpr e = BoolExpr::Parse("(a AND b) OR c", vocab_);
  ASSERT_FALSE(e.has_error());
  EXPECT_TRUE(e.Matches(Sorted({T("a"), T("b")})));
  EXPECT_TRUE(e.Matches(Sorted({T("c")})));
  EXPECT_FALSE(e.Matches(Sorted({T("a")})));
}

TEST_F(BoolExprTest, ParseErrors) {
  EXPECT_TRUE(BoolExpr::Parse("a AND", vocab_).has_error());
  EXPECT_TRUE(BoolExpr::Parse("(a OR b", vocab_).has_error());
  EXPECT_TRUE(BoolExpr::Parse("", vocab_).has_error());
  EXPECT_TRUE(BoolExpr::Parse("AND a", vocab_).has_error());
}

TEST_F(BoolExprTest, DistinctTermsSortedUnique) {
  const BoolExpr e = BoolExpr::Cnf({{T("b"), T("a")}, {T("a"), T("c")}});
  const auto terms = e.DistinctTerms();
  EXPECT_EQ(terms, Sorted({T("a"), T("b"), T("c")}));
}

TEST_F(BoolExprTest, RoutingTermsAndOnlyIsLeastFrequentKeyword) {
  const TermId a = T("a"), b = T("b"), c = T("c");
  vocab_.AddCount(a, 100);
  vocab_.AddCount(b, 1);
  vocab_.AddCount(c, 50);
  BoolExpr e = BoolExpr::And({a, b, c});
  e.ChooseRouting(vocab_);
  const auto keys = e.RoutingTerms();
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], b);  // the paper's least frequent keyword
}

TEST_F(BoolExprTest, RoutingTermsPicksCheapestClause) {
  const TermId a = T("a"), b = T("b"), c = T("c"), d = T("d");
  vocab_.AddCount(a, 10);
  vocab_.AddCount(b, 10);
  vocab_.AddCount(c, 2);
  vocab_.AddCount(d, 3);
  // (a OR b) AND (c OR d): clause costs 20 vs 5 -> route by {c, d}.
  BoolExpr e = BoolExpr::Cnf({{a, b}, {c, d}});
  e.ChooseRouting(vocab_);
  EXPECT_EQ(e.RoutingTerms(), Sorted({c, d}));
}

// The choice is made once: the chosen clause moves to the front (the other
// clauses keep their order), and later count drift changes nothing until
// ChooseRouting runs again.
TEST_F(BoolExprTest, ChooseRoutingFixesTheClauseAgainstCountDrift) {
  const TermId a = T("a"), b = T("b"), c = T("c");
  vocab_.AddCount(a, 5);
  vocab_.AddCount(b, 9);
  vocab_.AddCount(c, 3);
  BoolExpr e = BoolExpr::And({a, b, c});
  e.ChooseRouting(vocab_);
  ASSERT_EQ(e.clauses().size(), 3u);
  EXPECT_EQ(e.clauses()[0], std::vector<TermId>{c});
  EXPECT_EQ(e.clauses()[1], std::vector<TermId>{a});
  EXPECT_EQ(e.clauses()[2], std::vector<TermId>{b});
  vocab_.AddCount(c, 100);
  EXPECT_EQ(e.RoutingTerms(), std::vector<TermId>{c});
  EXPECT_TRUE(e.Matches(Sorted({a, b, c})));
  // Ties on cost prefer the clause with fewer terms, then the earlier one.
  const TermId d = T("d"), f = T("f");
  BoolExpr tie = BoolExpr::Cnf({{d, f}, {b}});
  vocab_.AddCount(d, 4);
  vocab_.AddCount(f, 5);
  tie.ChooseRouting(vocab_);
  EXPECT_EQ(tie.RoutingTerms(), std::vector<TermId>{b});
}

// The completeness property that motivates routing by a whole clause: any
// matching object shares at least one routing term with the query. (Keying
// only each clause's least frequent keyword violates this; see the header.)
TEST_F(BoolExprTest, RoutingTermsCompleteness) {
  const TermId a = T("a"), b = T("b"), c = T("c"), d = T("d");
  vocab_.AddCount(a, 1);
  vocab_.AddCount(b, 9);
  vocab_.AddCount(c, 1);
  vocab_.AddCount(d, 9);
  const BoolExpr e = BoolExpr::Cnf({{a, b}, {c, d}});
  // Object {b, d} matches but contains neither least-frequent key (a, c).
  const auto obj = Sorted({b, d});
  ASSERT_TRUE(e.Matches(obj));
  // Each clause's least frequent keyword: a and c.
  std::vector<TermId> lfk;
  for (const auto& clause : e.clauses()) {
    lfk.push_back(*std::min_element(
        clause.begin(), clause.end(), [this](TermId x, TermId y) {
          return vocab_.Count(x) < vocab_.Count(y);
        }));
  }
  bool lfk_hits = false;
  for (const TermId t : lfk) {
    lfk_hits |= std::binary_search(obj.begin(), obj.end(), t);
  }
  EXPECT_FALSE(lfk_hits) << "counter-example no longer demonstrates the bug";
  // Whole-clause routing does hit.
  BoolExpr routed = e;
  routed.ChooseRouting(vocab_);
  const auto keys = routed.RoutingTerms();
  bool hits = false;
  for (const TermId t : keys) {
    hits |= std::binary_search(obj.begin(), obj.end(), t);
  }
  EXPECT_TRUE(hits);
}

// Exhaustive mini-property: over all subsets of a 6-term universe, a match
// implies a routing-term hit.
TEST_F(BoolExprTest, RoutingTermsCompletenessExhaustive) {
  std::vector<TermId> u;
  for (int i = 0; i < 6; ++i) {
    const TermId t = T("u" + std::to_string(i));
    vocab_.AddCount(t, 1 + (i * 7) % 5);
    u.push_back(t);
  }
  BoolExpr e = BoolExpr::Cnf({{u[0], u[1]}, {u[2], u[3], u[4]}, {u[5]}});
  e.ChooseRouting(vocab_);
  const auto keys = e.RoutingTerms();
  for (int mask = 0; mask < 64; ++mask) {
    std::vector<TermId> obj;
    for (int i = 0; i < 6; ++i) {
      if (mask & (1 << i)) obj.push_back(u[i]);
    }
    std::sort(obj.begin(), obj.end());
    if (!e.Matches(obj)) continue;
    bool hit = false;
    for (const TermId t : keys) {
      hit |= std::binary_search(obj.begin(), obj.end(), t);
    }
    EXPECT_TRUE(hit) << "mask=" << mask;
  }
}

TEST_F(BoolExprTest, ParseReportsDescriptiveErrors) {
  std::string error;
  // Operator where a keyword is expected, with its position.
  BoolExpr e = BoolExpr::Parse("pizza AND AND", vocab_, &error);
  EXPECT_TRUE(e.has_error());
  EXPECT_EQ(error, "expected keyword or '(', got 'AND' at position 10");
  // Unbalanced parenthesis.
  e = BoolExpr::Parse("(a OR b", vocab_, &error);
  EXPECT_TRUE(e.has_error());
  EXPECT_EQ(error, "expected ')' at position 7");
  // Trailing input after a complete expression.
  e = BoolExpr::Parse("a OR b)", vocab_, &error);
  EXPECT_TRUE(e.has_error());
  EXPECT_EQ(error, "unexpected ')' at position 6");
  // Empty input.
  e = BoolExpr::Parse("", vocab_, &error);
  EXPECT_TRUE(e.has_error());
  EXPECT_EQ(error, "expected keyword or '(', got end of input at position 0");
  // Success clears the message.
  e = BoolExpr::Parse("a AND b", vocab_, &error);
  EXPECT_FALSE(e.has_error());
  EXPECT_TRUE(error.empty());
}

TEST_F(BoolExprTest, ToStringRoundTrips) {
  const BoolExpr e = BoolExpr::Parse("aa AND (bb OR cc)", vocab_);
  const std::string s = e.ToString(vocab_);
  Vocabulary v2 = vocab_;
  const BoolExpr e2 = BoolExpr::Parse(s, v2);
  EXPECT_EQ(e.clauses(), e2.clauses());
}

}  // namespace
}  // namespace ps2
