#include "runtime/metrics_exporter.h"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace ps2 {

namespace {

// One exported scalar: how it renders (counter vs gauge, integer vs float)
// and how to read it off a report. Function pointers, not captures, so one
// static table serves the fleet row and every per-shard row.
struct Metric {
  const char* name;  // suffix after the prefix, e.g. "tuples_processed"
  const char* help;
  const char* type;  // "counter" | "gauge"
  bool integral;
  double (*get)(const RunReport&);
};

#define PS2_COUNTER(field, help)                                       \
  Metric {                                                             \
    #field, help, "counter", true,                                     \
        [](const RunReport& r) { return static_cast<double>(r.field); } \
  }

const Metric kMetrics[] = {
    PS2_COUNTER(tuples_processed, "Stream tuples processed."),
    PS2_COUNTER(objects, "Objects published."),
    PS2_COUNTER(inserts, "Subscription inserts applied."),
    PS2_COUNTER(deletes, "Subscription deletes applied."),
    PS2_COUNTER(matches_emitted, "Matches emitted by workers, pre-dedup."),
    PS2_COUNTER(matches_delivered, "Deduplicated matches delivered."),
    PS2_COUNTER(duplicates_suppressed, "Duplicate matches suppressed."),
    PS2_COUNTER(objects_discarded, "Objects discarded by admission."),
    PS2_COUNTER(session_deliveries, "Deliveries handed to sessions."),
    PS2_COUNTER(session_drops,
                "Deliveries lost to backpressure or closed sessions."),
    PS2_COUNTER(matches_unrouted, "Matches with no routed session."),
    PS2_COUNTER(dedup_kills, "Duplicates the shared window suppressed."),
    PS2_COUNTER(wait_spins, "Wait-strategy spin iterations."),
    PS2_COUNTER(wait_parks, "Wait-strategy futex parks."),
    PS2_COUNTER(adjustments, "Load-controller checks that moved work."),
    PS2_COUNTER(cells_migrated, "Cells migrated by load adjustment."),
    PS2_COUNTER(queries_migrated, "Queries migrated by load adjustment."),
    PS2_COUNTER(bytes_migrated, "Bytes migrated by load adjustment."),
    PS2_COUNTER(routing_epochs, "Routing snapshot versions published."),
    PS2_COUNTER(transport_errors, "Transport Send() failures."),
    PS2_COUNTER(frame_retries, "Reliable-link frame retransmissions."),
    PS2_COUNTER(frame_redeliveries,
                "Duplicate frames suppressed by link receivers."),
    PS2_COUNTER(frames_dropped, "Frames abandoned at quarantined shards."),
    PS2_COUNTER(fabric_dup_suppressed,
                "Cross-restart duplicate matches suppressed."),
    PS2_COUNTER(shard_restarts, "Supervisor shard restarts."),
    PS2_COUNTER(shards_quarantined, "Supervisor quarantine events."),
    PS2_COUNTER(quota_rejections, "Subscribes rejected over a count quota."),
    PS2_COUNTER(rate_limited, "Publishes rejected by a tenant token bucket."),
    PS2_COUNTER(overload_trips, "Overload-controller degraded-mode entries."),
    PS2_COUNTER(overload_sheds, "Subscribes shed while degraded."),
    Metric{"live_subscriptions", "Subscriptions live now.", "gauge", true,
           [](const RunReport& r) {
             return static_cast<double>(r.live_subscriptions);
           }},
    Metric{"shards", "Engine shards this report covers.", "gauge", true,
           [](const RunReport& r) { return static_cast<double>(r.shards); }},
    Metric{"wall_seconds", "Wall-clock seconds of the reported run.", "gauge",
           false, [](const RunReport& r) { return r.wall_seconds; }},
    Metric{"throughput_tps", "Tuples per second of the reported run.",
           "gauge", false, [](const RunReport& r) { return r.throughput_tps; }},
};

#undef PS2_COUNTER

struct LatencyMetric {
  const char* name;
  const char* help;
  const LatencyHistogram& (*get)(const RunReport&);
};

const LatencyMetric kLatencies[] = {
    {"match_latency_us", "Tuple-process to match latency (microseconds).",
     [](const RunReport& r) -> const LatencyHistogram& { return r.latency; }},
    {"delivery_latency_us",
     "Publish to session-delivery latency (microseconds).",
     [](const RunReport& r) -> const LatencyHistogram& {
       return r.delivery_latency;
     }},
};

constexpr double kQuantiles[] = {0.5, 0.9, 0.99};

void AppendValue(std::string* out, const Metric& m, const RunReport& r) {
  char buf[64];
  if (m.integral) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(m.get(r)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", m.get(r));
  }
  *out += buf;
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

// Atomic publish: a scraper reading `path` sees either the previous dump or
// this one, never a prefix.
bool WriteFileAtomic(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << body;
    if (!out.flush()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

std::string RenderPrometheus(const RunReport& report,
                             const std::vector<RunReport>* shard_reports,
                             const std::string& prefix) {
  std::string out;
  out.reserve(4096);
  for (const Metric& m : kMetrics) {
    const std::string full = prefix + "_" + m.name;
    out += "# HELP " + full + " " + m.help + "\n";
    out += "# TYPE " + full + " " + m.type + "\n";
    out += full + " ";
    AppendValue(&out, m, report);
    out += '\n';
    if (shard_reports != nullptr) {
      for (size_t s = 0; s < shard_reports->size(); ++s) {
        out += full + "{shard=\"" + std::to_string(s) + "\"} ";
        AppendValue(&out, m, (*shard_reports)[s]);
        out += '\n';
      }
    }
  }
  for (const LatencyMetric& lm : kLatencies) {
    const std::string full = prefix + "_" + lm.name;
    const LatencyHistogram& h = lm.get(report);
    out += "# HELP " + full + " " + lm.help + "\n";
    out += "# TYPE " + full + " summary\n";
    for (const double q : kQuantiles) {
      out += full + "{quantile=\"";
      AppendDouble(&out, q);
      out += "\"} ";
      AppendDouble(&out, h.count() > 0 ? h.PercentileMicros(q) : 0.0);
      out += '\n';
    }
    out += full + "_sum ";
    AppendDouble(&out, h.MeanMicros() * static_cast<double>(h.count()));
    out += '\n';
    out += full + "_count " + std::to_string(h.count()) + "\n";
  }
  return out;
}

std::string RenderJson(const RunReport& report) {
  std::string out = "{\n";
  for (const Metric& m : kMetrics) {
    out += "  \"";
    out += m.name;
    out += "\": ";
    AppendValue(&out, m, report);
    out += ",\n";
  }
  bool first_latency = true;
  for (const LatencyMetric& lm : kLatencies) {
    if (!first_latency) out += ",\n";
    first_latency = false;
    const LatencyHistogram& h = lm.get(report);
    out += "  \"";
    out += lm.name;
    out += "\": {\"count\": " + std::to_string(h.count());
    out += ", \"mean\": ";
    AppendDouble(&out, h.MeanMicros());
    out += ", \"max\": ";
    AppendDouble(&out, h.MaxMicros());
    for (const double q : kQuantiles) {
      char key[16];
      std::snprintf(key, sizeof(key), "p%g", q * 100);
      out += ", \"";
      out += key;
      out += "\": ";
      AppendDouble(&out, h.count() > 0 ? h.PercentileMicros(q) : 0.0);
    }
    out += "}";
  }
  out += "\n}\n";
  return out;
}

MetricsExporter::MetricsExporter(Options options, SnapshotFn snapshot)
    : options_(std::move(options)), snapshot_(std::move(snapshot)) {}

MetricsExporter::~MetricsExporter() { Stop(); }

bool MetricsExporter::WriteOnce() {
  const RunReport report = snapshot_();
  bool ok = true;
  if (!options_.prometheus_path.empty()) {
    ok &= WriteFileAtomic(options_.prometheus_path,
                          RenderPrometheus(report, nullptr, options_.prefix));
  }
  if (!options_.json_path.empty()) {
    ok &= WriteFileAtomic(options_.json_path, RenderJson(report));
  }
  dumps_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

void MetricsExporter::Start() {
  if (running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = false;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void MetricsExporter::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void MetricsExporter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    wake_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                   [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    WriteOnce();
    lock.lock();
  }
  // Final dump so a graceful shutdown leaves current files behind.
  lock.unlock();
  WriteOnce();
}

}  // namespace ps2
