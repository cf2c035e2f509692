#include "runtime/spsc_ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace ps2 {
namespace {

// Pops a single item (test convenience; the engine always pops batches).
template <typename T>
bool PopOne(SpscRing<T>& ring, T* out) {
  std::vector<T> batch;
  if (ring.PopBatch(1, &batch) == 0) return false;
  *out = std::move(batch.front());
  return true;
}

TEST(SpscRingTest, FifoOrder) {
  EventCount ready;
  SpscRing<int> ring(8, &ready);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.TryPush(std::move(i)));
  for (int i = 0; i < 5; ++i) {
    int v = -1;
    ASSERT_TRUE(PopOne(ring, &v));
    EXPECT_EQ(v, i);
  }
  EXPECT_TRUE(ring.Empty());
}

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EventCount ready;
  EXPECT_EQ(SpscRing<int>(1, &ready).capacity(), 64u);
  EXPECT_EQ(SpscRing<int>(64, &ready).capacity(), 64u);
  EXPECT_EQ(SpscRing<int>(65, &ready).capacity(), 128u);
  EXPECT_EQ(SpscRing<int>(1000, &ready).capacity(), 1024u);
}

TEST(SpscRingTest, TryPushFailsWhenFull) {
  EventCount ready;
  SpscRing<int> ring(64, &ready);
  for (size_t i = 0; i < ring.capacity(); ++i) {
    EXPECT_TRUE(ring.TryPush(static_cast<int>(i)));
  }
  EXPECT_FALSE(ring.TryPush(999));
  // Freeing one slot re-admits exactly one push.
  int v = -1;
  ASSERT_TRUE(PopOne(ring, &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ring.TryPush(999));
  EXPECT_FALSE(ring.TryPush(1000));
}

TEST(SpscRingTest, WraparoundPreservesFifoAcrossManyLaps) {
  EventCount ready;
  SpscRing<uint64_t> ring(64, &ready);
  // Interleave pushes and pops so head/tail lap the buffer many times and
  // cross the 64-bit index arithmetic in every alignment.
  uint64_t next_push = 0, next_pop = 0;
  Rng rng(7);
  std::vector<uint64_t> batch;
  while (next_pop < 100000) {
    const size_t burst = 1 + rng.NextBelow(ring.capacity());
    for (size_t i = 0; i < burst; ++i) {
      if (!ring.TryPush(uint64_t{next_push})) break;
      ++next_push;
    }
    batch.clear();
    ring.PopBatch(1 + rng.NextBelow(ring.capacity()), &batch);
    for (const uint64_t v : batch) {
      ASSERT_EQ(v, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(ring.pending(), next_push - next_pop);
}

TEST(SpscRingTest, PopBatchAppendsAndRespectsLimit) {
  EventCount ready;
  SpscRing<int> ring(64, &ready);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(ring.TryPush(std::move(i)));
  std::vector<int> out = {-1};  // PopBatch appends; existing content stays
  EXPECT_EQ(ring.PopBatch(4, &out), 4u);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0], -1);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[4], 3);
  EXPECT_EQ(ring.PopBatch(100, &out), 6u);
  EXPECT_EQ(out.size(), 11u);
  EXPECT_EQ(out.back(), 9);
  EXPECT_EQ(ring.PopBatch(100, &out), 0u);
}

TEST(SpscRingTest, PushAfterCloseFails) {
  EventCount ready;
  SpscRing<int> ring(64, &ready);
  ring.Close();
  EXPECT_FALSE(ring.TryPush(1));
  WaitContext ctx(WaitStrategy::kBlocking);
  int v = 2;
  EXPECT_FALSE(ring.Push(std::move(v), ctx));
}

TEST(SpscRingTest, DrainsBeforeEndOfStream) {
  EventCount ready;
  SpscRing<int> ring(64, &ready);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  ring.Close();
  EXPECT_TRUE(ring.closed());
  EXPECT_FALSE(ring.closed_and_drained());
  int v = -1;
  ASSERT_TRUE(PopOne(ring, &v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(PopOne(ring, &v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(PopOne(ring, &v));
  EXPECT_TRUE(ring.closed_and_drained());
}

TEST(SpscRingTest, CloseReleasesBlockedProducer) {
  EventCount ready;
  SpscRing<int> ring(64, &ready);
  for (size_t i = 0; i < ring.capacity(); ++i) {
    ASSERT_TRUE(ring.TryPush(static_cast<int>(i)));
  }
  std::atomic<bool> returned{false};
  std::atomic<bool> result{true};
  std::thread producer([&] {
    WaitContext ctx(WaitStrategy::kBlocking);
    int v = 999;
    result = ring.Push(std::move(v), ctx);  // parks: ring is full
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  ring.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_FALSE(result.load());
}

TEST(SpscRingTest, HighwaterTracksDeepestDepth) {
  EventCount ready;
  SpscRing<int> ring(64, &ready);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ring.TryPush(std::move(i)));
  EXPECT_EQ(ring.highwater(), 10u);
  // The mark is a producer-side estimate against its cached head: popping
  // never lowers it, and later pushes may overshoot (stale cache) but never
  // shrink it below the true deepest depth.
  std::vector<int> out;
  ring.PopBatch(10, &out);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.TryPush(std::move(i)));
  EXPECT_GE(ring.highwater(), 10u);
}

// One producer parked on a full ring, one consumer parked on an empty one,
// strategies crossed over every combination: the EventCount handshake must
// never lose a wakeup. Run under TSan this is the park/unpark race test.
class SpscRingWaitTest : public ::testing::TestWithParam<WaitStrategy> {};

TEST_P(SpscRingWaitTest, ProducerConsumerStreamDeliversAllInOrder) {
  constexpr uint64_t kItems = 200000;
  EventCount consumer_ready;
  SpscRing<uint64_t> ring(64, &consumer_ready);  // small: constant pressure
  std::thread producer([&] {
    WaitContext ctx(GetParam());
    for (uint64_t i = 0; i < kItems; ++i) {
      uint64_t v = i;
      ASSERT_TRUE(ring.Push(std::move(v), ctx));
    }
    ring.Close();
  });
  uint64_t expected = 0;
  WaitContext ctx(GetParam());
  std::vector<uint64_t> batch;
  while (true) {
    batch.clear();
    if (ring.PopBatch(128, &batch) == 0) {
      if (ring.closed_and_drained()) break;
      if (GetParam() == WaitStrategy::kBusyPoll) {
        CpuRelax();
        continue;
      }
      ctx.Await(consumer_ready, [&] {
        return !ring.Empty() || ring.closed();
      });
      continue;
    }
    for (const uint64_t v : batch) {
      ASSERT_EQ(v, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
  EXPECT_GE(ring.highwater(), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SpscRingWaitTest,
                         ::testing::Values(WaitStrategy::kBlocking,
                                           WaitStrategy::kAdaptiveSpin,
                                           WaitStrategy::kBusyPoll),
                         [](const auto& info) {
                           std::string name = WaitStrategyName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// A consumer draining several rings through one shared EventCount — the
// engine's worker topology. Producers close their rings at random points;
// the consumer must see every item of every ring exactly once.
TEST(SpscRingTest, SharedEventCountAcrossRingsLosesNothing) {
  constexpr int kRings = 4;
  constexpr uint64_t kPerRing = 50000;
  EventCount consumer_ready;
  std::vector<std::unique_ptr<SpscRing<uint64_t>>> rings;
  for (int r = 0; r < kRings; ++r) {
    rings.push_back(std::make_unique<SpscRing<uint64_t>>(64, &consumer_ready));
  }
  std::vector<std::thread> producers;
  for (int r = 0; r < kRings; ++r) {
    producers.emplace_back([&, r] {
      WaitContext ctx(WaitStrategy::kBlocking);
      for (uint64_t i = 0; i < kPerRing; ++i) {
        uint64_t v = static_cast<uint64_t>(r) * kPerRing + i;
        ASSERT_TRUE(rings[r]->Push(std::move(v), ctx));
      }
      rings[r]->Close();
    });
  }
  std::vector<uint64_t> next(kRings, 0);
  uint64_t total = 0;
  WaitContext ctx(WaitStrategy::kAdaptiveSpin);
  std::vector<uint64_t> batch;
  while (true) {
    bool progressed = false;
    bool all_done = true;
    for (int r = 0; r < kRings; ++r) {
      batch.clear();
      if (rings[r]->PopBatch(64, &batch) > 0) {
        progressed = true;
        for (const uint64_t v : batch) {
          ASSERT_EQ(v, static_cast<uint64_t>(r) * kPerRing + next[r]);
          ++next[r];
          ++total;
        }
      }
      if (!rings[r]->closed_and_drained()) all_done = false;
    }
    if (all_done) break;
    if (!progressed) {
      ctx.Await(consumer_ready, [&] {
        for (const auto& ring : rings) {
          if (!ring->Empty() || ring->closed()) return true;
        }
        return false;
      });
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(total, static_cast<uint64_t>(kRings) * kPerRing);
}

// Reference model of a bounded blocking queue's observable stream semantics
// — bounded FIFO, push fails when full or closed, queued items drain after
// Close. (A blocking queue would block instead of failing, so the model
// exposes the same contract through non-blocking calls the fuzzer can
// drive.)
struct QueueModel {
  explicit QueueModel(size_t cap) : capacity(cap) {}
  size_t capacity;
  std::deque<int> items;
  bool closed = false;

  bool TryPush(int v) {
    if (closed || items.size() >= capacity) return false;
    items.push_back(v);
    return true;
  }
  std::vector<int> PopBatch(size_t max) {
    std::vector<int> out;
    while (!items.empty() && out.size() < max) {
      out.push_back(items.front());
      items.pop_front();
    }
    return out;
  }
};

// Randomized differential run against the bounded-queue model: identical
// operation sequences applied to both must yield identical observable
// streams through full rings, wraparound, and mid-stream Close.
TEST(SpscRingTest, FuzzMatchesBoundedQueueSemantics) {
  Rng rng(20260808);
  for (int round = 0; round < 40; ++round) {
    EventCount ready;
    SpscRing<int> ring(64, &ready);
    QueueModel model(ring.capacity());
    int next = 0;
    bool closed = false;
    for (int op = 0; op < 400; ++op) {
      const uint32_t k = rng.NextBelow(10);
      if (k < 5) {  // push burst
        const size_t burst = 1 + rng.NextBelow(100);
        for (size_t i = 0; i < burst; ++i) {
          const bool ring_ok = ring.TryPush(int{next});
          const bool model_ok = model.TryPush(next);
          ASSERT_EQ(ring_ok, model_ok) << "push divergence at item " << next;
          if (ring_ok) ++next;
        }
      } else if (k < 9) {  // pop burst
        const size_t want = 1 + rng.NextBelow(100);
        std::vector<int> from_ring;
        ring.PopBatch(want, &from_ring);
        // The ring may pop fewer than available against its stale cached
        // tail, but an empty result guarantees the ring was truly empty —
        // and whatever it pops must be the model's FIFO prefix.
        if (from_ring.empty()) ASSERT_TRUE(model.items.empty());
        ASSERT_EQ(from_ring, model.PopBatch(from_ring.size()));
      } else if (!closed && round % 2 == 0) {  // close mid-stream, even rounds
        ring.Close();
        model.closed = true;
        closed = true;
      }
      ASSERT_EQ(ring.pending(), model.items.size());
      ASSERT_EQ(ring.Empty(), model.items.empty());
      ASSERT_EQ(ring.closed(), model.closed);
    }
    // Drain both to the end of stream.
    while (true) {
      std::vector<int> from_ring;
      if (ring.PopBatch(ring.capacity(), &from_ring) == 0) break;
      ASSERT_EQ(from_ring, model.PopBatch(from_ring.size()));
    }
    ASSERT_TRUE(ring.Empty());
    ASSERT_TRUE(model.items.empty());
  }
}

}  // namespace
}  // namespace ps2
