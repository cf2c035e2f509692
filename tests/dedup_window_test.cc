#include "common/dedup_window.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iostream>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace ps2 {
namespace {

// Every shard keeps at least this many keys, whatever the capacity asked.
constexpr uint64_t kShardFloor = 16;

TEST(DedupWindowTest, FirstDeliverySecondSuppressed) {
  ShardedDedupWindow window;
  EXPECT_TRUE(window.AcceptFresh(1, 10));
  EXPECT_FALSE(window.AcceptFresh(1, 10));
  EXPECT_EQ(window.fresh(), 1u);
  EXPECT_EQ(window.duplicates(), 1u);
}

TEST(DedupWindowTest, DistinctPairsAllDelivered) {
  ShardedDedupWindow window;
  EXPECT_TRUE(window.AcceptFresh(1, 10));
  EXPECT_TRUE(window.AcceptFresh(1, 11));
  EXPECT_TRUE(window.AcceptFresh(2, 10));
  EXPECT_EQ(window.fresh(), 3u);
  EXPECT_EQ(window.duplicates(), 0u);
}

TEST(DedupWindowTest, WindowEviction) {
  // A capacity of 4 is below the per-shard floor: each of the 64 shards
  // still remembers its last 16 keys.
  ShardedDedupWindow window(/*window_capacity=*/4);
  for (uint64_t i = 0; i < kShardFloor; ++i) {
    ASSERT_TRUE(window.AcceptFresh(1, i));
  }
  // At most 15 later keys share (1, 0)'s shard: still remembered.
  EXPECT_FALSE(window.AcceptFresh(1, 0));
  // Keep adding pairs until (1, 0) is fresh again: its shard filled up and
  // evicted it (at-least-once semantics with a bounded window). That takes
  // at least 16 later keys in its shard, and far fewer than 64 x 16 x 8
  // keys overall.
  uint64_t next = kShardFloor;
  bool evicted = false;
  for (; next < 64 * kShardFloor * 8 && !evicted; ++next) {
    ASSERT_TRUE(window.AcceptFresh(1, next));
    evicted = window.AcceptFresh(1, 0);
  }
  EXPECT_TRUE(evicted);
  EXPECT_GT(next, kShardFloor);
}

TEST(DedupWindowTest, MemoryBounded) {
  // Per-key cost as MemoryBytes() counts it: hash node plus FIFO slot.
  const size_t per_key = sizeof(uint64_t) * 2 + 16;
  ShardedDedupWindow floored(/*window_capacity=*/100);
  ShardedDedupWindow sized(/*window_capacity=*/64 * 100);
  for (uint64_t i = 0; i < 20000; ++i) {
    floored.AcceptFresh(i, i);
    sized.AcceptFresh(i, i);
  }
  // The capacity, raised to the 16-per-shard floor, bounds the state.
  EXPECT_LE(floored.MemoryBytes(), 64 * kShardFloor * per_key);
  EXPECT_LE(sized.MemoryBytes(), 64 * 100 * per_key);
  EXPECT_GT(sized.MemoryBytes(), floored.MemoryBytes());
}

TEST(DedupWindowTest, HighFanoutDuplicates) {
  // One object matched by the same query on 8 workers at once.
  ShardedDedupWindow window;
  std::atomic<int> delivered{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&] {
      if (window.AcceptFresh(42, 7)) delivered.fetch_add(1);
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(delivered.load(), 1);
  EXPECT_EQ(window.fresh(), 1u);
  EXPECT_EQ(window.duplicates(), 7u);
}

// Several threads offer overlapping random pair streams. The window is far
// larger than the number of distinct pairs, so nothing is evicted and the
// single-threaded model is a plain set: every distinct pair is fresh
// exactly once across all threads, whatever the interleaving.
TEST(DedupWindowTest, ConcurrentFuzzMatchesSetModel) {
  const uint64_t seed = 20261019;
  std::cout << "DedupWindowTest fuzz seed " << seed << std::endl;
  SCOPED_TRACE(seed);
  constexpr int kThreads = 4;
  constexpr size_t kOffersPerThread = 20000;

  // Small id ranges make cross-thread duplicates frequent.
  Rng rng(seed);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> offers(kThreads);
  std::set<std::pair<uint64_t, uint64_t>> model;
  for (auto& stream : offers) {
    for (size_t i = 0; i < kOffersPerThread; ++i) {
      const std::pair<uint64_t, uint64_t> pair{rng.NextBelow(200),
                                               rng.NextBelow(150)};
      stream.push_back(pair);
      model.insert(pair);
    }
  }

  ShardedDedupWindow window;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> fresh(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const auto& [q, o] : offers[t]) {
        if (window.AcceptFresh(q, o)) fresh[t].emplace_back(q, o);
      }
    });
  }
  for (auto& t : threads) t.join();

  std::set<std::pair<uint64_t, uint64_t>> got;
  size_t fresh_total = 0;
  for (const auto& accepted : fresh) {
    for (const auto& pair : accepted) {
      EXPECT_TRUE(got.insert(pair).second)
          << "pair (" << pair.first << ", " << pair.second
          << ") accepted twice";
    }
    fresh_total += accepted.size();
  }
  EXPECT_EQ(got, model);
  EXPECT_EQ(window.fresh(), fresh_total);
  EXPECT_EQ(window.duplicates(), kThreads * kOffersPerThread - fresh_total);
}

}  // namespace
}  // namespace ps2
