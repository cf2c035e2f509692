#ifndef PS2_API_DELIVERY_ROUTER_H_
#define PS2_API_DELIVERY_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "api/delivery.h"
#include "api/delivery_sink.h"
#include "api/subscriber_session.h"
#include "common/dedup_window.h"
#include "subscribe/topk.h"

namespace ps2 {

// Routes dedup-fresh matches to subscriber sessions, and owns the sharded
// (query, object) duplicate window both execution modes filter through: the
// threaded engine's worker threads call AcceptFresh + DeliverBatch straight
// from the match path, and the synchronous facade gates each Post's matches
// through the same AcceptFresh — one dedup window, one delivery semantics,
// so a facade restarted between modes never re-delivers a pair it already
// delivered.
//
// Concurrency follows the RoutingSnapshot pattern: the QueryId -> session
// map is sharded, and each shard is an *immutable* map republished with one
// atomic shared_ptr swap per mutation. Delivering threads resolve a query
// with a single atomic load and never block on subscribe / unsubscribe /
// session churn; writers serialize per shard and pay a copy proportional to
// the shard (1/kShards of the table), not the table.
class DeliveryRouter final : public DeliverySink {
 public:
  DeliveryRouter() = default;

  DeliveryRouter(const DeliveryRouter&) = delete;
  DeliveryRouter& operator=(const DeliveryRouter&) = delete;

  // --- control plane (facade) ----------------------------------------------
  // Points `id` at `session` (replacing any previous route). The router
  // shares ownership, so a session stays deliverable while any of its
  // subscriptions is live even if the application dropped its handle.
  void Route(QueryId id, std::shared_ptr<SubscriberSession> session);
  void Unroute(QueryId id);

  // Tracks a session for draining and stats aggregation (weak: the registry
  // never keeps a session alive).
  void RegisterSession(const std::shared_ptr<SubscriberSession>& session);

  // Engine-drain mode, forwarded to every live session: while draining, a
  // full kBlock queue drops instead of blocking (see BackpressurePolicy).
  void SetDraining(bool draining);

  // Overload-shedding mode, forwarded to every live session (and inherited
  // by sessions registered while set): full kBlock queues degrade to
  // drop-oldest. Set by the facade's overload controller.
  void SetShedding(bool shedding);
  bool shedding() const { return shedding_.load(std::memory_order_relaxed); }

  // Installs the continuous top-k admission stage (facade-owned; may be
  // null). Deduplicated matches for a registered top-k query detour through
  // the coordinator — only admissions reach the session; buffered
  // candidates wait for an expiry to promote them. Set before traffic.
  void SetTopK(TopKCoordinator* topk) { topk_ = topk; }
  TopKCoordinator* topk() const { return topk_; }

  // Delivers a coordinator-admitted entry (a promotion) straight to the
  // routed session, bypassing the dedup window — the pair was filtered once
  // on its way INTO the coordinator and was never delivered since.
  void DeliverAdmitted(const Delivery& admitted);

  // --- data plane (workers / synchronous publish) --------------------------
  // Duplicate filter: true when (query, object) was not delivered within
  // the window. Worker threads gate every match on this before staging a
  // delivery. Thread-safe (lock-striped).
  bool AcceptFresh(QueryId query_id, ObjectId object_id) override {
    return dedup_.AcceptFresh(query_id, object_id);
  }

  // Delivers one already-deduplicated match. `publish_us` is the publish
  // timestamp carried from the facade/engine. Thread-safe, lock-free
  // lookup.
  void Deliver(const MatchResult& m, int64_t publish_us) override;

  // Batch variant for the worker loop: `pending` carries query/object ids
  // and publish_us; deliver_us is stamped by each session. Contiguous runs
  // for the same session enqueue under one session lock.
  void DeliverBatch(const Delivery* pending, size_t n) override;

  // --- introspection --------------------------------------------------------
  std::shared_ptr<SubscriberSession> Lookup(QueryId id) const;
  // Matches that arrived for a query with no routed session (subscriptions
  // made without a session, or in-flight matches after an unsubscribe).
  uint64_t unrouted() const {
    return unrouted_.load(std::memory_order_relaxed);
  }
  // Dedup-window counters (see common/dedup_window.h).
  uint64_t dedup_fresh() const { return dedup_.fresh(); }
  uint64_t dedup_kills() const { return dedup_.duplicates(); }
  // Candidates parked in the top-k admission stage instead of delivered.
  uint64_t topk_buffered() const {
    return topk_buffered_.load(std::memory_order_relaxed);
  }
  // Sum of every session's counters (latency histograms merged) — live
  // sessions plus the folded counters of registered sessions that were
  // destroyed before this call, so RunReport::session_drops is exact even
  // when sessions die mid-run.
  SessionStats AggregateStats() const;

  // Aggregate consumer-queue occupancy across live sessions: total queued
  // deliveries and total capacity. The overload controller's session-side
  // pressure signal.
  void QueueDepth(uint64_t* pending, uint64_t* capacity) const;

 private:
  using Map =
      std::unordered_map<QueryId, std::shared_ptr<SubscriberSession>>;

  static constexpr size_t kShards = 64;
  static size_t ShardOf(QueryId id) {
    // Mix before masking: sequential ids otherwise stripe shards unevenly
    // under small id ranges.
    uint64_t h = id * 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(h >> 58);  // top 6 bits -> 64 shards
  }

  struct Shard {
    std::mutex writer_mu;
    // Read with std::atomic_load, republished with std::atomic_store; a
    // null pointer means "empty" (saves allocating 64 empty maps up front).
    std::shared_ptr<const Map> map;
  };

  // Copy-on-write update of one shard under its writer lock.
  template <typename Fn>
  void MutateShard(size_t shard, Fn&& fn);

  // Enqueues one delivery to its routed session (or counts it unrouted).
  void Enqueue(const Delivery& d);

  mutable Shard shards_[kShards];
  ShardedDedupWindow dedup_;
  std::atomic<uint64_t> unrouted_{0};
  TopKCoordinator* topk_ = nullptr;
  std::atomic<uint64_t> topk_buffered_{0};

  mutable std::mutex sessions_mu_;
  std::vector<std::weak_ptr<SubscriberSession>> sessions_;
  std::shared_ptr<RetiredSessionStats> retired_ =
      std::make_shared<RetiredSessionStats>();
  std::atomic<bool> shedding_{false};
};

}  // namespace ps2

#endif  // PS2_API_DELIVERY_ROUTER_H_
