#ifndef PS2_API_DELIVERY_H_
#define PS2_API_DELIVERY_H_

#include <cstdint>
#include <string>

#include "common/latency.h"
#include "common/wait_strategy.h"
#include "core/query.h"

namespace ps2 {

// One match handed to a subscriber: which subscription fired, which object
// triggered it, and the two timestamps the delivery-latency metric is
// computed from. `publish_us` is stamped when the publisher's call entered
// the service (Post/Publish in synchronous mode, engine Submit in started
// mode); `deliver_us` when the match reached the subscriber's session (queue
// enqueue or sink invocation).
struct Delivery {
  QueryId query_id = 0;
  ObjectId object_id = 0;
  int64_t publish_us = 0;
  int64_t deliver_us = 0;
  // Scored subscription classes: the cosine score that fired the match and
  // the object's event-time expiry (0 = never). Boolean matches carry 0/0.
  double score = 0.0;
  int64_t expire_us = 0;

  double LatencyMicros() const {
    return static_cast<double>(deliver_us - publish_us);
  }
};

// Push-mode consumption: a session with a sink installed invokes it for
// every delivery instead of queueing. Invocations are serialized per
// session but run on the *delivering* thread (a worker thread in started
// mode, the publisher's thread in synchronous mode), so implementations
// must be fast and must not call back into the session or the facade.
class MatchSink {
 public:
  virtual ~MatchSink() = default;
  virtual void OnMatch(const Delivery& delivery) = 0;
};

// What a session does when a delivery arrives and its queue is full.
enum class BackpressurePolicy : uint8_t {
  // Block the delivering thread until the consumer frees a slot (the same
  // flow control the engine's SPSC rings apply between stages). During
  // engine drain (Stop()) blocking degrades to kDropNewest so a stalled
  // consumer can never wedge shutdown.
  kBlock = 0,
  // Evict the oldest queued delivery to make room (keep the freshest).
  kDropOldest,
  // Drop the incoming delivery (keep the backlog).
  kDropNewest,
};

const char* BackpressurePolicyName(BackpressurePolicy policy);

struct SessionOptions {
  size_t queue_capacity = 1024;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  // Latency class of this session's consumer: kBlocking parks on the
  // condition variable immediately; kAdaptiveSpin / kBusyPoll sessions spin
  // on the queue counter before (or instead of) parking, shaving the futex
  // wakeup off the delivery tail at the price of consumer CPU.
  WaitStrategy wait_strategy = WaitStrategy::kBlocking;
  // Tenant this session (and every subscription opened through it) is
  // accounted to for quota and rate-limit purposes. Empty = the default
  // tenant; quotas still apply per session.
  std::string tenant;
};

// Per-session delivery accounting; aggregated across sessions into
// RunReport by PS2Stream::Stop() and available live via stats().
struct SessionStats {
  uint64_t delivered = 0;  // queued or pushed to the sink
  uint64_t dropped = 0;    // lost to backpressure or a closed session
  LatencyHistogram latency;  // publish -> deliver

  void Merge(const SessionStats& other) {
    delivered += other.delivered;
    dropped += other.dropped;
    latency.Merge(other.latency);
  }
};

}  // namespace ps2

#endif  // PS2_API_DELIVERY_H_
