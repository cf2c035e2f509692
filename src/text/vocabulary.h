#ifndef PS2_TEXT_VOCABULARY_H_
#define PS2_TEXT_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace ps2 {

// Dense identifier for a term in the vocabulary. TermId 0 is valid; the
// sentinel kInvalidTerm marks "not in vocabulary".
using TermId = uint32_t;
inline constexpr TermId kInvalidTerm = ~TermId{0};

// The term dictionary of the facade. It interns term strings to dense
// TermIds and tracks per-term occurrence counts so that:
//  * admission can choose each query's routing clause, the least frequent
//    keyword of the CNF (Section IV-C: "looks up H1 using the least
//    frequent keyword"; BoolExpr::ChooseRouting),
//  * text partitioners can weigh terms by frequency,
//  * hybrid partitioning can build term-frequency vectors for the cosine
//    similarity test.
// Dispatchers and workers do not read it: a query carries its routing
// clause, and objects carry TermIds.
//
// Frequencies here are corpus statistics (counted over a sample of objects),
// not live counters; the paper's dispatchers likewise rely on a frequency
// profile of the stream.
class Vocabulary {
 public:
  Vocabulary() = default;

  // Interns `term`, returning its id. Does not change counts.
  TermId Intern(const std::string& term);

  // Returns the id of `term`, or kInvalidTerm if never interned.
  TermId Lookup(const std::string& term) const;

  const std::string& TermString(TermId id) const { return terms_[id]; }

  // Adds `n` observed occurrences of `id`.
  void AddCount(TermId id, uint64_t n = 1);

  uint64_t Count(TermId id) const {
    return id < counts_.size() ? counts_[id] : 0;
  }

  uint64_t TotalCount() const { return total_count_; }

  size_t size() const { return terms_.size(); }

  // Term ids sorted by descending count (rank 0 = most frequent). Recomputed
  // on demand; used by generators and the frequency-based partitioner.
  std::vector<TermId> TermsByFrequency() const;

  // True if `id` ranks within the top `fraction` (e.g. 0.01 = top 1%) most
  // frequent terms. Used by the Q2 generator ("at least one keyword not in
  // the top 1% most frequent terms").
  bool IsTopFraction(TermId id, double fraction) const;

  // Approximate heap footprint in bytes (strings + tables).
  size_t MemoryBytes() const;

 private:
  std::unordered_map<std::string, TermId> index_;
  std::vector<std::string> terms_;
  std::vector<uint64_t> counts_;
  uint64_t total_count_ = 0;
};

}  // namespace ps2

#endif  // PS2_TEXT_VOCABULARY_H_
