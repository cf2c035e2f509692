#include "text/bool_expr.h"

#include <algorithm>
#include <cctype>

#include "text/tokenizer.h"

namespace ps2 {
namespace {

void Normalize(std::vector<TermId>& clause) {
  std::sort(clause.begin(), clause.end());
  clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
}

// Recursive-descent parser producing CNF. Tokens are produced on the fly.
struct Parser {
  const std::string& text;
  Vocabulary& vocab;
  size_t pos = 0;
  bool error = false;
  std::string error_msg;

  // Records the first error only: later failures are cascades of it.
  void Fail(const std::string& msg) {
    if (error) return;
    error = true;
    error_msg = msg + " at position " + std::to_string(pos);
  }

  void SkipSpace() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  // Returns next token: "(", ")", "AND", "OR" or a term (lowercased); empty
  // string at end of input. Does not consume; use Consume() after Peek().
  std::string Peek() {
    SkipSpace();
    if (pos >= text.size()) return "";
    const char c = text[pos];
    if (c == '(' || c == ')') return std::string(1, c);
    size_t end = pos;
    while (end < text.size() && text[end] != '(' && text[end] != ')' &&
           !std::isspace(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    std::string tok = text.substr(pos, end - pos);
    std::string upper = tok;
    for (auto& ch : upper) ch = std::toupper(static_cast<unsigned char>(ch));
    if (upper == "AND" || upper == "OR") return upper;
    for (auto& ch : tok) ch = std::tolower(static_cast<unsigned char>(ch));
    return tok;
  }

  void Consume(const std::string& tok) {
    SkipSpace();
    if (tok == "(" || tok == ")") {
      ++pos;
      return;
    }
    // Advance over the raw token (same length as peeked, operators and terms
    // are case-changed copies of the raw text).
    pos += tok.size();
  }

  // expr := clause (AND clause)*  -- returns CNF clause list.
  std::vector<std::vector<TermId>> ParseExpr() {
    std::vector<std::vector<TermId>> cnf = ParseClause();
    while (!error) {
      const std::string tok = Peek();
      if (tok != "AND") break;
      Consume(tok);
      auto rhs = ParseClause();
      for (auto& c : rhs) cnf.push_back(std::move(c));
    }
    return cnf;
  }

  // clause := atom (OR atom)* -- OR distributes over the CNFs of the atoms:
  // (A1&A2) OR (B1&B2) = (A1|B1)&(A1|B2)&(A2|B1)&(A2|B2).
  std::vector<std::vector<TermId>> ParseClause() {
    std::vector<std::vector<TermId>> cnf = ParseAtom();
    while (!error) {
      const std::string tok = Peek();
      if (tok != "OR") break;
      Consume(tok);
      auto rhs = ParseAtom();
      std::vector<std::vector<TermId>> out;
      out.reserve(cnf.size() * rhs.size());
      for (const auto& a : cnf) {
        for (const auto& b : rhs) {
          std::vector<TermId> merged = a;
          merged.insert(merged.end(), b.begin(), b.end());
          Normalize(merged);
          out.push_back(std::move(merged));
        }
      }
      cnf = std::move(out);
    }
    return cnf;
  }

  std::vector<std::vector<TermId>> ParseAtom() {
    SkipSpace();
    const std::string tok = Peek();
    if (tok.empty() || tok == ")" || tok == "AND" || tok == "OR") {
      Fail(tok.empty() ? "expected keyword or '(', got end of input"
                       : "expected keyword or '(', got '" + tok + "'");
      return {};
    }
    if (tok == "(") {
      Consume(tok);
      auto inner = ParseExpr();
      SkipSpace();
      if (Peek() != ")") {
        Fail("expected ')'");
        return {};
      }
      Consume(")");
      return inner;
    }
    Consume(tok);
    return {{vocab.Intern(tok)}};
  }
};

}  // namespace

BoolExpr BoolExpr::And(std::vector<TermId> terms) {
  std::vector<std::vector<TermId>> clauses;
  clauses.reserve(terms.size());
  for (const TermId t : terms) clauses.push_back({t});
  return Cnf(std::move(clauses));
}

BoolExpr BoolExpr::Or(std::vector<TermId> terms) {
  return Cnf({std::move(terms)});
}

BoolExpr BoolExpr::Cnf(std::vector<std::vector<TermId>> clauses) {
  BoolExpr e;
  for (auto& clause : clauses) {
    if (clause.empty()) continue;
    Normalize(clause);
    e.clauses_.push_back(std::move(clause));
  }
  // Arm the inline AND fast path when every clause is a singleton and the
  // distinct terms fit the inline array (duplicate singleton clauses
  // collapse: "a AND a" requires the same single term).
  if (!e.clauses_.empty() && e.clauses_.size() <= 2 * kInlineAndTerms) {
    std::vector<TermId> terms;
    terms.reserve(e.clauses_.size());
    for (const auto& clause : e.clauses_) {
      if (clause.size() != 1) return e;
      terms.push_back(clause[0]);
    }
    Normalize(terms);
    if (terms.size() <= kInlineAndTerms) {
      for (size_t i = 0; i < terms.size(); ++i) e.and_terms_[i] = terms[i];
      e.num_and_terms_ = static_cast<uint8_t>(terms.size());
    }
  }
  return e;
}

BoolExpr BoolExpr::Parse(const std::string& text, Vocabulary& vocab,
                         std::string* error) {
  if (error != nullptr) error->clear();
  Parser p{text, vocab, /*pos=*/0, /*error=*/false, /*error_msg=*/{}};
  auto cnf = p.ParseExpr();
  p.SkipSpace();
  if (!p.error && p.pos != text.size()) {
    p.Fail("unexpected '" + std::string(1, text[p.pos]) + "'");
  }
  if (p.error) {
    if (error != nullptr) *error = p.error_msg;
    BoolExpr e;
    e.has_error_ = true;
    return e;
  }
  return Cnf(std::move(cnf));
}

bool BoolExpr::MatchesCnf(
    const std::vector<TermId>& sorted_object_terms) const {
  if (clauses_.empty()) return false;
  for (const auto& clause : clauses_) {
    bool clause_sat = false;
    for (const TermId t : clause) {
      if (std::binary_search(sorted_object_terms.begin(),
                             sorted_object_terms.end(), t)) {
        clause_sat = true;
        break;
      }
    }
    if (!clause_sat) return false;
  }
  return true;
}

std::vector<TermId> BoolExpr::DistinctTerms() const {
  std::vector<TermId> all;
  for (const auto& c : clauses_) all.insert(all.end(), c.begin(), c.end());
  Normalize(all);
  return all;
}

void BoolExpr::ChooseRouting(const Vocabulary& vocab) {
  if (clauses_.size() < 2) return;
  size_t best = 0;
  uint64_t best_cost = ~0ULL;
  for (size_t i = 0; i < clauses_.size(); ++i) {
    uint64_t cost = 0;
    for (const TermId t : clauses_[i]) cost += vocab.Count(t);
    if (cost < best_cost ||
        (cost == best_cost && clauses_[i].size() < clauses_[best].size())) {
      best = i;
      best_cost = cost;
    }
  }
  std::rotate(clauses_.begin(), clauses_.begin() + best,
              clauses_.begin() + best + 1);
}

size_t BoolExpr::TermSlots() const {
  size_t n = 0;
  for (const auto& c : clauses_) n += c.size();
  return n;
}

std::string BoolExpr::ToString(const Vocabulary& vocab) const {
  std::string out;
  for (size_t i = 0; i < clauses_.size(); ++i) {
    if (i) out += " AND ";
    if (clauses_[i].size() > 1) out += "(";
    for (size_t j = 0; j < clauses_[i].size(); ++j) {
      if (j) out += " OR ";
      out += vocab.TermString(clauses_[i][j]);
    }
    if (clauses_[i].size() > 1) out += ")";
  }
  return out;
}

}  // namespace ps2
