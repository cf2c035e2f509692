#ifndef PS2_RUNTIME_SIM_ENGINE_H_
#define PS2_RUNTIME_SIM_ENGINE_H_

#include <vector>

#include "adjust/load_controller.h"
#include "adjust/local_adjust.h"
#include "runtime/engine.h"
#include "runtime/metrics.h"

namespace ps2 {

// Deterministic event-driven simulation of the cluster under a paced input
// stream, including dynamic load adjustments and their latency side
// effects. Matching is executed for real (through the Cluster); *time* is
// virtual: tuples arrive at `arrival_rate_tps`, each delivery occupies its
// worker for a constant per-kind service time, and a migration blocks the
// two involved workers for the modeled migration duration. This reproduces
// the paper's Figures 12(b,c), 14, 15 and 16 without the nondeterminism of
// wall-clock scheduling.
class DeliverySink;

struct SimOptions {
  double arrival_rate_tps = 50000.0;
  // When non-null, every match the cluster's per-object filter keeps is
  // delivered through this sink (in-process: a DeliveryRouter, so matches
  // reach the routed subscriber sessions) with *virtual* timestamps
  // (publish = arrival, deliver = the worker's service finish), so session
  // latency histograms report simulated publish->deliver time. Not owned.
  DeliverySink* delivery = nullptr;
  // Per-delivery service times. With measure_service = true, the *measured*
  // CPU time of the actual GI2 operation is used and these constants become
  // the fixed per-delivery overhead (queueing/serialization/network) added
  // on top — so partitioner differences in real matching cost show up in
  // worker utilization even on a single-core host. With false, the
  // constants alone are used (fully deterministic; unit tests use this).
  bool measure_service = false;
  double object_service_us = 8.0;
  double insert_service_us = 12.0;
  double delete_service_us = 4.0;
  // Definition-1 matching charge: processing an object at a worker costs
  // per_candidate_us for every live query stored in the probed cell (the
  // c1 * |O| * |Q| term of the paper's load model, which its partitioners
  // optimize and its evaluation validates). Space partitioning concentrates
  // a cell's queries on one worker; text partitioning spreads them, which
  // is precisely the asymmetry the paper's Q2 results hinge on. Applied
  // only when measure_service is true (capacity benchmarks).
  double per_candidate_us = 0.3;
  // Balance check cadence (in tuples) and the adjuster configuration.
  bool enable_adjust = true;
  size_t adjust_check_interval = 25000;
  LocalAdjustConfig adjust;
  // Recent-tuple window used for Phase I term statistics.
  size_t window_capacity = 40000;
  // Tuples per capacity-accounting window (throughput_windowed_tps).
  size_t capacity_window = 5000;
};

struct SimMigrationEvent {
  double sim_time_s = 0.0;
  AdjustReport report;
};

struct SimReport {
  uint64_t tuples = 0;
  double sim_seconds = 0.0;
  LatencyHistogram latency;
  std::vector<SimMigrationEvent> migrations;

  // Aggregates over migrations that actually moved data.
  double avg_migration_bytes = 0.0;
  double avg_migration_seconds = 0.0;
  double avg_selection_ms = 0.0;
  int num_migrations = 0;

  // Latency bucket fractions (Figures 12c / 15).
  double frac_below_100ms = 0.0;
  double frac_100_to_1000ms = 0.0;
  double frac_above_1000ms = 0.0;

  // Capacity estimate: arrival rate / utilization of the busiest worker,
  // cumulative over the whole run. Right metric for stationary workloads.
  double throughput_estimate_tps = 0.0;

  // Windowed capacity estimate: arrival rate / mean-over-windows of the
  // *per-window* busiest-worker utilization. Under drifting workloads the
  // hotspot moves between workers; cumulative utilization averages that
  // out and hides the bottleneck, while the windowed estimate tracks the
  // sustained rate the system could actually absorb (used by Figure 16).
  double throughput_windowed_tps = 0.0;

  uint64_t matches_delivered = 0;
};

SimReport RunSimulation(Cluster& cluster,
                        const std::vector<StreamTuple>& input,
                        const SimOptions& options);

// Engine-interface adapter over RunSimulation: the virtual-time twin of
// ThreadedEngine. Run() maps the SimReport onto the common RunReport shape
// (wall_seconds = simulated seconds, throughput = windowed capacity
// estimate); the full simulation detail stays available via sim_report().
class SimEngine : public Engine {
 public:
  SimEngine(Cluster& cluster, SimOptions options = SimOptions())
      : cluster_(cluster), options_(std::move(options)) {}

  std::string name() const override { return "sim"; }
  RunReport Run(const std::vector<StreamTuple>& input) override;

  const SimReport& sim_report() const { return sim_report_; }

 private:
  Cluster& cluster_;
  SimOptions options_;
  SimReport sim_report_;
};

}  // namespace ps2

#endif  // PS2_RUNTIME_SIM_ENGINE_H_
