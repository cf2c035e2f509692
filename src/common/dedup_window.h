#ifndef PS2_COMMON_DEDUP_WINDOW_H_
#define PS2_COMMON_DEDUP_WINDOW_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_set>

namespace ps2 {

// Concurrent (query, object) duplicate filter over a bounded FIFO window,
// lock-striped so worker threads deduplicate on the match path without a
// global serialization point. Each delivery sink owns one. Duplicates
// arise whenever a query is stored on several workers (wide regions,
// multi-term text routing, live-migration copies) and an object reaches
// more than one of them, and when a caller posts the same object id twice;
// the stream is roughly ordered by object id, so duplicates of a pair
// arrive close together and a bounded window suffices.
//
// Keys hash-stripe across 64 shards; each shard holds 1/64 of the window
// and its own mutex, so concurrent AcceptFresh calls only collide when two
// matches land in the same shard. A collision between two distinct pairs'
// 64-bit keys only suppresses one delivery; the odds are negligible at the
// window sizes used.
class ShardedDedupWindow {
 public:
  explicit ShardedDedupWindow(size_t window_capacity = 1 << 20) {
    const size_t per_shard = window_capacity / kShards;
    for (auto& s : shards_) s.capacity = per_shard < 16 ? 16 : per_shard;
  }

  ShardedDedupWindow(const ShardedDedupWindow&) = delete;
  ShardedDedupWindow& operator=(const ShardedDedupWindow&) = delete;

  // True when (query, object) was not seen within the window: the match is
  // fresh and should be delivered. Thread-safe.
  bool AcceptFresh(uint64_t query_id, uint64_t object_id) {
    const uint64_t key = Key(query_id, object_id);
    Shard& s = shards_[key >> 58];  // top 6 bits -> 64 shards
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.seen.insert(key).second) {
      ++s.duplicates;
      return false;
    }
    s.fifo.push_back(key);
    if (s.fifo.size() > s.capacity) {
      s.seen.erase(s.fifo.front());
      s.fifo.pop_front();
    }
    ++s.fresh;
    return true;
  }

  uint64_t fresh() const { return Sum(&Shard::fresh); }
  uint64_t duplicates() const { return Sum(&Shard::duplicates); }

  size_t MemoryBytes() const {
    size_t total = 0;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      total += s.seen.size() * (sizeof(uint64_t) + 16) +
               s.fifo.size() * sizeof(uint64_t);
    }
    return total;
  }

 private:
  // 64-bit mix of (query, object); the top 6 bits pick the shard.
  static uint64_t Key(uint64_t query_id, uint64_t object_id) {
    uint64_t h = query_id * 0x9E3779B97F4A7C15ULL;
    h ^= object_id + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return h;
  }

  static constexpr size_t kShards = 64;

  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_set<uint64_t> seen;
    std::deque<uint64_t> fifo;
    size_t capacity = 0;
    uint64_t fresh = 0;
    uint64_t duplicates = 0;
  };

  uint64_t Sum(uint64_t Shard::* field) const {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      total += s.*field;
    }
    return total;
  }

  Shard shards_[kShards];
};

}  // namespace ps2

#endif  // PS2_COMMON_DEDUP_WINDOW_H_
