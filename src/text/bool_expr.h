#ifndef PS2_TEXT_BOOL_EXPR_H_
#define PS2_TEXT_BOOL_EXPR_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "text/vocabulary.h"

namespace ps2 {

// Boolean keyword expression of an STS query, stored in conjunctive normal
// form (CNF): an AND of clauses, each clause an OR of terms.
//
//   "a AND b"        -> clauses {a}, {b}
//   "a OR b"         -> clause  {a, b}
//   "(a OR b) AND c" -> clauses {a, b}, {c}
//
// The paper's queries have 1-3 keywords connected by AND or OR; CNF covers
// both and is exactly the shape GI2 and the gridt index key on ("the least
// frequent keywords in each conjunctive norm form").
class BoolExpr {
 public:
  BoolExpr() = default;

  // Builds an AND-of-keywords expression (each keyword its own clause).
  static BoolExpr And(std::vector<TermId> terms);

  // Builds a single OR clause.
  static BoolExpr Or(std::vector<TermId> terms);

  // Builds a CNF from explicit clauses. Empty clauses are dropped; duplicate
  // terms within a clause are deduplicated.
  static BoolExpr Cnf(std::vector<std::vector<TermId>> clauses);

  // Parses expressions like "kobe AND (retired OR lebron)" against `vocab`,
  // interning unknown terms. Grammar (case-insensitive operators):
  //   expr   := clause (AND clause)*
  //   clause := atom (OR atom)*
  //   atom   := TERM | '(' expr ')'
  // Parenthesized sub-expressions are distributed into CNF. Returns an empty
  // expression on syntax error (check has_error()); when `error` is non-null
  // it receives a human-readable description of the first syntax error
  // ("expected keyword or '(' at position 4, got 'AND'"), or is cleared on
  // success. The message is an out-parameter rather than a member so
  // BoolExpr itself stays lean — millions of parsed subscriptions should
  // not each carry an empty std::string.
  static BoolExpr Parse(const std::string& text, Vocabulary& vocab,
                        std::string* error = nullptr);

  bool has_error() const { return has_error_; }
  bool empty() const { return clauses_.empty(); }
  const std::vector<std::vector<TermId>>& clauses() const { return clauses_; }

  // True when every clause contains at least one term of `object_terms`
  // (which must be sorted ascending). An empty expression matches nothing.
  //
  // The common case — AND-only with few keywords (the paper's queries have
  // 1-3) — is evaluated entirely from an inline sorted term array by a
  // two-pointer merge against the object's sorted terms, without touching
  // the heap-allocated clause vectors. Defined here so the worker hot loop
  // can inline it.
  bool Matches(const std::vector<TermId>& sorted_object_terms) const {
    if (num_and_terms_ > 0) {
      size_t i = 0;
      const size_t n = sorted_object_terms.size();
      for (uint8_t k = 0; k < num_and_terms_; ++k) {
        const TermId t = and_terms_[k];
        while (i < n && sorted_object_terms[i] < t) ++i;
        if (i == n || sorted_object_terms[i] != t) return false;
        ++i;
      }
      return true;
    }
    return MatchesCnf(sorted_object_terms);
  }

  // All distinct terms across clauses, sorted ascending. This is q.K as a
  // set, used for routing (q.K ∩ Ti ≠ ∅ tests).
  std::vector<TermId> DistinctTerms() const;

  // Chooses the routing clause: the cheapest clause by summed term count in
  // `vocab`, then the one with fewer terms (less duplication), then the
  // earliest. The chosen clause moves to clauses()[0]; the others keep
  // their order. Called once, where a query is admitted, so every later
  // routing decision reads the same clause whatever the counts become.
  void ChooseRouting(const Vocabulary& vocab);

  // The terms GI2 and the gridt index key this query on: every term of
  // clauses()[0], the routing clause chosen at admission (ChooseRouting).
  // Any matching object satisfies every clause, hence contains at least one
  // term of any one clause, so indexing/routing a query under exactly these
  // terms is complete. For AND-only queries (singleton clauses) the chosen
  // clause is the paper's "least frequent keyword". (Keying each clause's
  // least frequent keyword alone — a literal reading of the paper — is
  // incomplete for multi-clause OR queries; see bool_expr_test.) Empty for
  // an empty expression.
  const std::vector<TermId>& RoutingTerms() const {
    static const std::vector<TermId> kNoTerms;
    return clauses_.empty() ? kNoTerms : clauses_.front();
  }

  // Number of stored term slots (for memory accounting).
  size_t TermSlots() const;

  std::string ToString(const Vocabulary& vocab) const;

 private:
  // Largest AND-only expression kept inline (covers the paper's 1-3
  // keywords with headroom).
  static constexpr uint8_t kInlineAndTerms = 4;

  // General CNF evaluation; the clause-vector slow path of Matches().
  bool MatchesCnf(const std::vector<TermId>& sorted_object_terms) const;

  std::vector<std::vector<TermId>> clauses_;
  // Inline fast-path mirror, set by Cnf() when every clause is a singleton
  // and there are at most kInlineAndTerms of them: the distinct terms,
  // sorted ascending. num_and_terms_ == 0 means "use clauses_".
  // clauses_ stays authoritative for routing, serialization and accounting.
  std::array<TermId, kInlineAndTerms> and_terms_{};
  uint8_t num_and_terms_ = 0;
  bool has_error_ = false;
};

}  // namespace ps2

#endif  // PS2_TEXT_BOOL_EXPR_H_
