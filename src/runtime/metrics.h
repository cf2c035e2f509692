#ifndef PS2_RUNTIME_METRICS_H_
#define PS2_RUNTIME_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/latency.h"
#include "dispatch/dispatch_stats.h"

namespace ps2 {

// Result sheet of one runtime execution; benchmarks print these.
struct RunReport {
  uint64_t tuples_processed = 0;
  uint64_t objects = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t matches_delivered = 0;
  uint64_t duplicates_suppressed = 0;
  // Matches emitted by worker indexes before dedup (>= delivered; the gap
  // is cross-worker duplicates plus matches found after Stop()'s drain
  // cutoff in aborted runs).
  uint64_t matches_emitted = 0;
  uint64_t objects_discarded = 0;
  // Session delivery (api/ layer, aggregated across sessions by
  // PS2Stream::Stop): deliveries handed to subscriber sessions, deliveries
  // lost to backpressure/closed sessions, and dedup-fresh matches whose
  // query had no routed session.
  uint64_t session_deliveries = 0;
  uint64_t session_drops = 0;
  uint64_t matches_unrouted = 0;
  double wall_seconds = 0.0;
  double throughput_tps = 0.0;  // tuples per second
  LatencyHistogram latency;
  // Publish -> session-delivery latency (stamped at engine Submit / facade
  // Post, recorded when the match reaches its session).
  LatencyHistogram delivery_latency;
  std::vector<uint64_t> per_worker_tuples;
  size_t dispatcher_memory_bytes = 0;
  std::vector<size_t> worker_memory_bytes;

  // Routing statistics aggregated across dispatcher threads.
  DispatchStats dispatch;

  // Online load adjustment (threaded engine's controller; zero when the
  // controller is disabled or the run stayed balanced).
  uint64_t adjustments = 0;        // checks that moved something
  uint64_t cells_migrated = 0;
  uint64_t queries_migrated = 0;
  uint64_t bytes_migrated = 0;
  uint64_t routing_epochs = 0;     // snapshot versions published

  // Threaded data-plane internals (zero for synchronous/sim runs).
  uint64_t dedup_kills = 0;        // duplicates the sharded window suppressed
  uint64_t wait_spins = 0;         // spin iterations across all WaitContexts
  uint64_t wait_parks = 0;         // futex parks across all WaitContexts
  // Deepest any of a worker's SPSC data rings ever got (one entry per
  // worker; producer-side estimate).
  std::vector<uint64_t> worker_ring_highwater;

  // Shard-fabric fault tolerance (all zero for single-engine runs and for
  // fabrics that never saw a fault): transport Send() failures, reliable-
  // link retransmissions, duplicate frames the link receivers suppressed,
  // frames abandoned at quarantined shards, cross-restart duplicate matches
  // the front window killed, and the supervisor's restart/quarantine tally.
  uint64_t transport_errors = 0;
  uint64_t frame_retries = 0;
  uint64_t frame_redeliveries = 0;
  uint64_t frames_dropped = 0;
  uint64_t fabric_dup_suppressed = 0;
  uint64_t shard_restarts = 0;
  uint64_t shards_quarantined = 0;

  // Admission control (facade layer; zero when quotas and the overload
  // controller are disabled): subscribes rejected over a count quota,
  // publishes rejected by a tenant token bucket, overload-controller
  // degraded-mode entries, and subscribes shed while degraded.
  uint64_t quota_rejections = 0;
  uint64_t rate_limited = 0;
  uint64_t overload_trips = 0;
  uint64_t overload_sheds = 0;
  // Gauge: subscriptions live at report time (facade-maintained).
  uint64_t live_subscriptions = 0;

  // Engine shards this report covers: 1 for a single engine, N after
  // MergeShard folded a fleet together (the shard fabric's Stop()).
  int shards = 1;

  double AvgWorkerMemory() const;
  double MaxWorkerShare() const;  // max per-worker tuples / total

  // Folds one shard's report into this fleet report: counters sum,
  // histograms and dispatch stats merge, per-worker vectors append (so the
  // fleet report lists every worker of every shard), wall time is the
  // slowest shard's (they ran concurrently), and throughput is recomputed
  // over the merged totals.
  void MergeShard(const RunReport& shard);

  // One-line digest (throughput, match counters, latency) for bench logs;
  // prefixed with the shard count when the report covers a fleet.
  std::string Summary() const;
};

// Per-shard sections followed by the fleet-total Summary() line — what a
// multi-shard bench or test prints to show both the balance across shards
// and the aggregate. `shard_reports` are the individual engines' reports,
// `fleet` the MergeShard() fold of them.
std::string FleetSummary(const std::vector<RunReport>& shard_reports,
                         const RunReport& fleet);

}  // namespace ps2

#endif  // PS2_RUNTIME_METRICS_H_
