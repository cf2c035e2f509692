#include "runtime/sim_engine.h"

#include <algorithm>
#include <deque>

#include "api/delivery_sink.h"
#include "common/stopwatch.h"

namespace ps2 {

SimReport RunSimulation(Cluster& cluster,
                        const std::vector<StreamTuple>& input,
                        const SimOptions& options) {
  SimReport report;
  const int m = cluster.num_workers();
  std::vector<double> busy_until(m, 0.0);   // seconds, virtual time
  std::vector<double> busy_total(m, 0.0);   // accumulated service time
  std::vector<double> busy_window(m, 0.0);  // service time, current window
  double window_max_util_sum = 0.0;
  size_t num_windows = 0;
  size_t window_pos = 0;
  LoadControllerConfig controller_config;
  controller_config.adjust = options.adjust;
  LoadController controller(controller_config);
  SyncMigrationExecutor executor(cluster);

  // Sliding window of recent tuples for Phase I term statistics.
  std::deque<const StreamTuple*> window;

  std::vector<MatchResult> matches;

  size_t since_check = 0;
  for (size_t i = 0; i < input.size(); ++i) {
    const StreamTuple& tuple = input[i];
    const double arrival = static_cast<double>(i) / options.arrival_rate_tps;

    window.push_back(&tuple);
    if (window.size() > options.window_capacity) window.pop_front();

    double finish_max = arrival;
    for (const auto& d : cluster.Route(tuple)) {
      double service_us = 0.0;
      switch (tuple.kind) {
        case TupleKind::kObject:
          service_us = options.object_service_us;
          break;
        case TupleKind::kQueryInsert:
          service_us = options.insert_service_us;
          break;
        case TupleKind::kQueryDelete:
          service_us = options.delete_service_us;
          break;
      }
      matches.clear();
      if (options.measure_service) {
        if (tuple.kind == TupleKind::kObject) {
          // Definition-1 matching charge (see SimOptions::per_candidate_us).
          const CellId cell =
              cluster.router().plan().grid.CellOf(tuple.object.loc);
          service_us +=
              options.per_candidate_us *
              cluster.worker(d.worker).StatsFor(cell).num_queries;
        }
        Stopwatch op_timer;
        cluster.Apply(tuple, d, &matches);
        service_us += static_cast<double>(op_timer.ElapsedNanos()) / 1e3;
      } else {
        cluster.Apply(tuple, d, &matches);
      }
      report.matches_delivered += matches.size();
      const double start = std::max(arrival, busy_until[d.worker]);
      const double finish = start + service_us * 1e-6;
      if (options.delivery != nullptr) {
        for (const auto& m : matches) {
          Delivery dv;
          dv.query_id = m.query_id;
          dv.object_id = m.object_id;
          dv.publish_us = static_cast<int64_t>(arrival * 1e6);
          dv.deliver_us = static_cast<int64_t>(finish * 1e6);
          dv.score = m.score;
          dv.expire_us = m.expire_us;
          options.delivery->DeliverBatch(&dv, 1);
        }
      }
      busy_until[d.worker] = finish;
      busy_total[d.worker] += service_us * 1e-6;
      busy_window[d.worker] += service_us * 1e-6;
      finish_max = std::max(finish_max, finish);
    }
    report.latency.Record((finish_max - arrival) * 1e6);

    if (++window_pos >= options.capacity_window) {
      const double span =
          static_cast<double>(window_pos) / options.arrival_rate_tps;
      const double mx =
          *std::max_element(busy_window.begin(), busy_window.end());
      window_max_util_sum += mx / span;
      ++num_windows;
      std::fill(busy_window.begin(), busy_window.end(), 0.0);
      window_pos = 0;
    }

    if (options.enable_adjust && ++since_check >= options.adjust_check_interval) {
      since_check = 0;
      WorkloadSample sample;
      for (const StreamTuple* t : window) {
        switch (t->kind) {
          case TupleKind::kObject:
            sample.objects.push_back(t->object);
            break;
          case TupleKind::kQueryInsert:
            sample.inserts.push_back(t->query);
            break;
          case TupleKind::kQueryDelete:
            sample.deletes.push_back(t->query);
            break;
        }
      }
      AdjustReport adj = controller.Check(
          cluster, cluster.WorkerLoads(options.adjust.cost), sample, executor);
      if (adj.triggered &&
          (adj.bytes_migrated > 0 || adj.phase1_splits > 0 ||
           adj.phase1_merges > 0)) {
        // The two involved workers stall for the migration duration: tuples
        // routed to them meanwhile queue behind the stall.
        const double stall_until = arrival + adj.migration_seconds;
        if (adj.overloaded >= 0) {
          busy_until[adj.overloaded] =
              std::max(busy_until[adj.overloaded], stall_until);
        }
        if (adj.underloaded >= 0) {
          busy_until[adj.underloaded] =
              std::max(busy_until[adj.underloaded], stall_until);
        }
        report.migrations.push_back(SimMigrationEvent{arrival, adj});
        // Load accounting restarts after an adjustment, as in the paper's
        // periodic windows.
        cluster.ResetLoadWindow();
      }
    }
  }

  report.tuples = input.size();
  report.sim_seconds =
      static_cast<double>(input.size()) / options.arrival_rate_tps;

  double bytes = 0.0, secs = 0.0, sel = 0.0;
  for (const auto& e : report.migrations) {
    if (e.report.bytes_migrated == 0) continue;
    ++report.num_migrations;
    bytes += static_cast<double>(e.report.bytes_migrated);
    secs += e.report.migration_seconds;
    sel += e.report.selection.selection_ms;
  }
  if (report.num_migrations > 0) {
    report.avg_migration_bytes = bytes / report.num_migrations;
    report.avg_migration_seconds = secs / report.num_migrations;
    report.avg_selection_ms = sel / report.num_migrations;
  }
  report.frac_below_100ms = report.latency.FractionBelow(100e3);
  report.frac_100_to_1000ms =
      report.latency.FractionBelow(1000e3) - report.frac_below_100ms;
  report.frac_above_1000ms = 1.0 - report.latency.FractionBelow(1000e3);

  double max_util = 0.0;
  for (int w = 0; w < m; ++w) {
    max_util = std::max(max_util, busy_total[w] / report.sim_seconds);
  }
  report.throughput_estimate_tps =
      max_util > 0 ? options.arrival_rate_tps / max_util
                   : options.arrival_rate_tps;
  const double mean_window_max =
      num_windows > 0 ? window_max_util_sum / num_windows : max_util;
  report.throughput_windowed_tps =
      mean_window_max > 0 ? options.arrival_rate_tps / mean_window_max
                          : options.arrival_rate_tps;
  return report;
}

RunReport SimEngine::Run(const std::vector<StreamTuple>& input) {
  sim_report_ = RunSimulation(cluster_, input, options_);
  RunReport report;
  report.tuples_processed = sim_report_.tuples;
  for (const auto& t : input) {
    switch (t.kind) {
      case TupleKind::kObject:
        report.objects++;
        break;
      case TupleKind::kQueryInsert:
        report.inserts++;
        break;
      case TupleKind::kQueryDelete:
        report.deletes++;
        break;
    }
  }
  report.wall_seconds = sim_report_.sim_seconds;
  report.throughput_tps = sim_report_.throughput_windowed_tps;
  report.latency = sim_report_.latency;
  report.matches_delivered = sim_report_.matches_delivered;
  report.duplicates_suppressed = cluster_.duplicates_suppressed();
  // Cluster::Apply either delivers or suppresses every worker match, so
  // worker-emitted matches are exactly delivered + suppressed duplicates.
  report.matches_emitted =
      sim_report_.matches_delivered + report.duplicates_suppressed;
  report.objects_discarded = cluster_.dispatcher().stats().objects_discarded;
  for (const auto& t : cluster_.tallies()) {
    report.per_worker_tuples.push_back(t.objects + t.inserts + t.deletes);
  }
  report.adjustments = sim_report_.migrations.size();
  uint64_t queries_moved = 0, bytes_moved = 0;
  for (const auto& m : sim_report_.migrations) {
    queries_moved += m.report.queries_moved;
    bytes_moved += m.report.bytes_migrated;
    report.cells_migrated += m.report.selection.cells.size() +
                             m.report.phase1_splits + m.report.phase1_merges;
  }
  report.queries_migrated = queries_moved;
  report.bytes_migrated = bytes_moved;
  report.dispatcher_memory_bytes = cluster_.DispatcherMemoryBytes();
  for (int w = 0; w < cluster_.num_workers(); ++w) {
    report.worker_memory_bytes.push_back(cluster_.WorkerMemoryBytes(w));
  }
  report.dispatch = cluster_.dispatcher().stats();
  return report;
}

}  // namespace ps2
