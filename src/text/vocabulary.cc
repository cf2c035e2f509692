#include "text/vocabulary.h"

#include <algorithm>

namespace ps2 {

TermId Vocabulary::Intern(const std::string& term) {
  auto [it, inserted] = index_.try_emplace(term, 0);
  if (inserted) {
    it->second = static_cast<TermId>(terms_.size());
    terms_.push_back(term);
    counts_.push_back(0);
  }
  return it->second;
}

TermId Vocabulary::Lookup(const std::string& term) const {
  auto it = index_.find(term);
  return it == index_.end() ? kInvalidTerm : it->second;
}

void Vocabulary::AddCount(TermId id, uint64_t n) {
  if (id >= counts_.size()) return;
  counts_[id] += n;
  total_count_ += n;
}

std::vector<TermId> Vocabulary::TermsByFrequency() const {
  std::vector<TermId> ids(terms_.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<TermId>(i);
  std::sort(ids.begin(), ids.end(), [this](TermId a, TermId b) {
    if (counts_[a] != counts_[b]) return counts_[a] > counts_[b];
    return a < b;
  });
  return ids;
}

bool Vocabulary::IsTopFraction(TermId id, double fraction) const {
  if (id >= counts_.size() || terms_.empty()) return false;
  const uint64_t c = counts_[id];
  // Count how many terms are strictly more frequent; that is the rank.
  size_t rank = 0;
  for (const uint64_t other : counts_) {
    if (other > c) ++rank;
  }
  return rank < static_cast<size_t>(fraction * terms_.size());
}

size_t Vocabulary::MemoryBytes() const {
  size_t bytes = counts_.size() * sizeof(uint64_t);
  for (const auto& t : terms_) {
    bytes += sizeof(std::string) + t.capacity();
    // Hash-map entry: key string + id + bucket overhead (approximation).
    bytes += sizeof(std::string) + t.capacity() + sizeof(TermId) + 16;
  }
  return bytes;
}

}  // namespace ps2
