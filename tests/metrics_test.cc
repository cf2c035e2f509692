#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/metrics_exporter.h"
#include "runtime/ps2stream.h"
#include "test_util.h"

namespace ps2 {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

RunReport MakeReport() {
  RunReport r;
  r.tuples_processed = 12345;
  r.objects = 12000;
  r.matches_emitted = 900;
  r.matches_delivered = 800;
  r.duplicates_suppressed = 100;
  r.session_deliveries = 780;
  r.session_drops = 20;
  r.quota_rejections = 3;
  r.rate_limited = 7;
  r.overload_trips = 1;
  r.overload_sheds = 2;
  r.live_subscriptions = 42;
  r.wall_seconds = 1.5;
  r.throughput_tps = 8230.0;
  r.latency.Record(10.0);
  r.latency.Record(20.0);
  r.latency.Record(30.0);
  return r;
}

// ---------------------------------------------------------------------------
// Prometheus rendering
// ---------------------------------------------------------------------------

TEST(MetricsExporterTest, PrometheusEmitsHelpTypeAndValues) {
  const std::string out = RenderPrometheus(MakeReport(), nullptr);

  EXPECT_NE(out.find("# HELP ps2_tuples_processed "), std::string::npos);
  EXPECT_NE(out.find("# TYPE ps2_tuples_processed counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("\nps2_tuples_processed 12345\n"), std::string::npos);
  EXPECT_NE(out.find("\nps2_quota_rejections 3\n"), std::string::npos);
  EXPECT_NE(out.find("\nps2_rate_limited 7\n"), std::string::npos);
  EXPECT_NE(out.find("\nps2_overload_trips 1\n"), std::string::npos);
  EXPECT_NE(out.find("\nps2_overload_sheds 2\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE ps2_live_subscriptions gauge\n"),
            std::string::npos);
  EXPECT_NE(out.find("\nps2_live_subscriptions 42\n"), std::string::npos);
  EXPECT_NE(out.find("\nps2_shards 1\n"), std::string::npos);

  // Latency renders as a Prometheus summary: quantiles, _sum and _count.
  EXPECT_NE(out.find("# TYPE ps2_match_latency_us summary\n"),
            std::string::npos);
  EXPECT_NE(out.find("ps2_match_latency_us{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(out.find("ps2_match_latency_us{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(out.find("\nps2_match_latency_us_sum 60\n"), std::string::npos);
  EXPECT_NE(out.find("\nps2_match_latency_us_count 3\n"), std::string::npos);
  EXPECT_NE(out.find("\nps2_delivery_latency_us_count 0\n"),
            std::string::npos);
}

TEST(MetricsExporterTest, PrometheusHonorsPrefix) {
  const std::string out = RenderPrometheus(MakeReport(), nullptr, "svc");
  EXPECT_NE(out.find("\nsvc_tuples_processed 12345\n"), std::string::npos);
  EXPECT_EQ(out.find("ps2_"), std::string::npos);
}

TEST(MetricsExporterTest, PrometheusAddsPerShardLabels) {
  RunReport fleet = MakeReport();
  fleet.shards = 2;
  RunReport s0;
  s0.tuples_processed = 10;
  RunReport s1;
  s1.tuples_processed = 20;
  const std::vector<RunReport> shards = {s0, s1};

  const std::string out = RenderPrometheus(fleet, &shards);
  EXPECT_NE(out.find("\nps2_tuples_processed 12345\n"), std::string::npos);
  EXPECT_NE(out.find("\nps2_tuples_processed{shard=\"0\"} 10\n"),
            std::string::npos);
  EXPECT_NE(out.find("\nps2_tuples_processed{shard=\"1\"} 20\n"),
            std::string::npos);
  EXPECT_NE(out.find("\nps2_shards 2\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON rendering
// ---------------------------------------------------------------------------

TEST(MetricsExporterTest, JsonIsFlatBalancedAndComplete) {
  const std::string out = RenderJson(MakeReport());

  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.substr(out.size() - 2), "}\n");
  // No trailing comma before the closing brace (strict-JSON killers).
  EXPECT_EQ(out.find(",\n}"), std::string::npos);
  EXPECT_EQ(out.find(",}"), std::string::npos);

  EXPECT_NE(out.find("\"tuples_processed\": 12345"), std::string::npos);
  EXPECT_NE(out.find("\"quota_rejections\": 3"), std::string::npos);
  EXPECT_NE(out.find("\"rate_limited\": 7"), std::string::npos);
  EXPECT_NE(out.find("\"live_subscriptions\": 42"), std::string::npos);
  EXPECT_NE(out.find("\"match_latency_us\": {\"count\": 3"),
            std::string::npos);
  EXPECT_NE(out.find("\"p50\": "), std::string::npos);
  EXPECT_NE(out.find("\"p99\": "), std::string::npos);

  int depth = 0;
  for (const char c : out) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// ---------------------------------------------------------------------------
// File exporter
// ---------------------------------------------------------------------------

TEST(MetricsExporterTest, WriteOnceWritesBothFiles) {
  const std::string dir = ::testing::TempDir() + "/ps2_metrics_once_" +
                          std::to_string(::getpid());
  ASSERT_EQ(::system(("mkdir -p " + dir).c_str()), 0);

  MetricsExporter::Options options;
  options.prometheus_path = dir + "/metrics.prom";
  options.json_path = dir + "/metrics.json";
  MetricsExporter exporter(options, [] { return MakeReport(); });

  ASSERT_TRUE(exporter.WriteOnce());
  EXPECT_EQ(exporter.dumps(), 1u);
  EXPECT_EQ(ReadFileOrDie(options.prometheus_path),
            RenderPrometheus(MakeReport(), nullptr));
  EXPECT_EQ(ReadFileOrDie(options.json_path), RenderJson(MakeReport()));
}

TEST(MetricsExporterTest, PeriodicExporterDumpsAndStopsCleanly) {
  const std::string dir = ::testing::TempDir() + "/ps2_metrics_loop_" +
                          std::to_string(::getpid());
  ASSERT_EQ(::system(("mkdir -p " + dir).c_str()), 0);

  MetricsExporter::Options options;
  options.json_path = dir + "/metrics.json";
  options.interval_ms = 5;
  MetricsExporter exporter(options, [] { return MakeReport(); });

  exporter.Start();
  EXPECT_TRUE(exporter.running());
  for (int i = 0; i < 400 && exporter.dumps() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(exporter.dumps(), 2u);
  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  // The shutdown path leaves a final, current dump behind.
  EXPECT_EQ(ReadFileOrDie(options.json_path), RenderJson(MakeReport()));
}

// ---------------------------------------------------------------------------
// Summary truncation safety (regression: fixed 448-byte buffer)
// ---------------------------------------------------------------------------

// A report with every optional section active and worst-case-wide counters
// used to overflow Summary()'s fixed buffer, silently truncating the tail
// (the fault and admission sections vanished first — exactly the ones a
// post-mortem needs). The rewrite sizes the output to fit.
RunReport MakeWorstCaseReport() {
  const uint64_t big = std::numeric_limits<uint64_t>::max();
  RunReport r;
  r.shards = 64;
  r.tuples_processed = big;
  r.matches_emitted = big;
  r.matches_delivered = big;
  r.duplicates_suppressed = big;
  r.throughput_tps = 1e18;
  r.session_deliveries = big;
  r.session_drops = big;
  r.matches_unrouted = big;
  r.wait_spins = big;
  r.wait_parks = big;
  r.worker_ring_highwater.assign(8, big);
  r.transport_errors = big;
  r.frame_retries = big;
  r.frame_redeliveries = big;
  r.frames_dropped = big;
  r.fabric_dup_suppressed = big;
  r.shard_restarts = big;
  r.shards_quarantined = big;
  r.quota_rejections = big;
  r.rate_limited = big;
  r.overload_trips = big;
  r.overload_sheds = big;
  for (int i = 0; i < 1000; ++i) r.latency.Record(1e9 + i);
  for (int i = 0; i < 1000; ++i) r.delivery_latency.Record(1e9 + i);
  return r;
}

TEST(RunReportSummaryTest, SummaryIsTruncationSafe) {
  const RunReport r = MakeWorstCaseReport();
  const std::string out = r.Summary();

  // Far beyond the old fixed buffer, and every section survived in full —
  // including the embedded latency digests and the very last byte.
  EXPECT_GT(out.size(), 448u);
  EXPECT_NE(out.find("shards=64 "), std::string::npos);
  EXPECT_NE(out.find(r.latency.Summary()), std::string::npos);
  EXPECT_NE(out.find(r.delivery_latency.Summary()), std::string::npos);
  EXPECT_NE(out.find(" sessions{delivered=18446744073709551615"),
            std::string::npos);
  EXPECT_NE(out.find(" rings{hw=18446744073709551615"), std::string::npos);
  EXPECT_NE(out.find(" faults{xport_err=18446744073709551615"),
            std::string::npos);
  EXPECT_NE(out.find(" admission{quota=18446744073709551615"),
            std::string::npos);
  const std::string tail = " sheds=18446744073709551615}";
  ASSERT_GE(out.size(), tail.size());
  EXPECT_EQ(out.substr(out.size() - tail.size()), tail);
}

TEST(RunReportSummaryTest, FleetSummaryIsTruncationSafe) {
  const RunReport shard = MakeWorstCaseReport();
  const std::vector<RunReport> shards = {shard, shard, shard};
  RunReport fleet = MakeWorstCaseReport();
  const std::string out = FleetSummary(shards, fleet);

  EXPECT_NE(out.find("shard 0: "), std::string::npos);
  EXPECT_NE(out.find("shard 2: "), std::string::npos);
  EXPECT_NE(out.find("\nfleet:   "), std::string::npos);
  // The fleet line is last and intact.
  const std::string tail = " sheds=18446744073709551615}";
  EXPECT_EQ(out.substr(out.size() - tail.size()), tail);
  // Each of the three shard sections plus the fleet line carries the full
  // admission segment.
  size_t count = 0;
  for (size_t pos = out.find(" admission{"); pos != std::string::npos;
       pos = out.find(" admission{", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 4u);
}

TEST(RunReportSummaryTest, MergeShardSumsAdmissionCounters) {
  RunReport fleet;
  RunReport a;
  a.quota_rejections = 2;
  a.rate_limited = 3;
  a.overload_trips = 1;
  a.overload_sheds = 4;
  a.live_subscriptions = 10;
  RunReport b;
  b.quota_rejections = 5;
  b.rate_limited = 7;
  b.overload_trips = 2;
  b.overload_sheds = 1;
  b.live_subscriptions = 20;

  fleet.MergeShard(a);
  fleet.MergeShard(b);
  EXPECT_EQ(fleet.quota_rejections, 7u);
  EXPECT_EQ(fleet.rate_limited, 10u);
  EXPECT_EQ(fleet.overload_trips, 3u);
  EXPECT_EQ(fleet.overload_sheds, 5u);
  EXPECT_EQ(fleet.live_subscriptions, 30u);
}

// ---------------------------------------------------------------------------
// Facade integration
// ---------------------------------------------------------------------------

TEST(PS2StreamMetricsTest, SnapshotAndRenderersWorkLive) {
  PS2Stream ps2;
  ps2.Bootstrap(WorkloadSample{});
  PS2Stream::SessionPtr session = ps2.OpenSession();
  auto sub = ps2.Subscribe(session, "fire", Rect(0, 0, 1, 1));
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(ps2.Post(Point{0.5, 0.5}, "fire nearby").ok());

  // Live snapshot (no Stop() yet): session counters and the gauge overlay.
  const RunReport live = ps2.MetricsSnapshot();
  EXPECT_EQ(live.session_deliveries, 1u);
  EXPECT_EQ(live.live_subscriptions, 1u);

  const std::string prom = ps2.MetricsPrometheus();
  EXPECT_NE(prom.find("\nps2_session_deliveries 1\n"), std::string::npos);
  EXPECT_NE(prom.find("\nps2_live_subscriptions 1\n"), std::string::npos);
  const std::string json = ps2.MetricsJson();
  EXPECT_NE(json.find("\"session_deliveries\": 1"), std::string::npos);
}

TEST(PS2StreamMetricsTest, FabricPrometheusCarriesShardSections) {
  const testutil::TestWorkload workload =
      testutil::MakeWorkload(/*seed=*/23, /*num_objects=*/300,
                             /*num_queries=*/60, /*num_terms=*/30);
  PS2StreamOptions options;
  options.sharding.num_shards = 2;
  PS2Stream ps2(options);
  ps2.Bootstrap(workload.sample);
  ps2.Start();

  PS2Stream::SessionPtr session = ps2.OpenSession();
  auto sub = ps2.Subscribe(session, "fire", Rect(0, 0, 1, 1));
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(ps2.Post(Point{0.5, 0.5}, "fire nearby").ok());
  const RunReport report = ps2.Stop();
  EXPECT_EQ(report.shards, 2);

  const std::string prom = ps2.MetricsPrometheus();
  EXPECT_NE(prom.find("\nps2_shards 2\n"), std::string::npos);
  EXPECT_NE(prom.find("ps2_tuples_processed{shard=\"0\"} "),
            std::string::npos);
  EXPECT_NE(prom.find("ps2_tuples_processed{shard=\"1\"} "),
            std::string::npos);
}

TEST(PS2StreamMetricsTest, FacadeExporterWritesConfiguredFiles) {
  const std::string dir = ::testing::TempDir() + "/ps2_metrics_facade_" +
                          std::to_string(::getpid());
  ASSERT_EQ(::system(("mkdir -p " + dir).c_str()), 0);

  PS2Stream ps2;
  ps2.Bootstrap(WorkloadSample{});
  PS2Stream::SessionPtr session = ps2.OpenSession();
  auto sub = ps2.Subscribe(session, "fire", Rect(0, 0, 1, 1));
  ASSERT_TRUE(sub.ok());

  MetricsExporter::Options options;
  options.prometheus_path = dir + "/live.prom";
  options.json_path = dir + "/live.json";
  options.interval_ms = 3600 * 1000;  // rely on the final dump at Stop
  ASSERT_TRUE(ps2.StartMetricsExporter(options));
  EXPECT_FALSE(ps2.StartMetricsExporter(options));  // already running
  ps2.StopMetricsExporter();

  const std::string prom = ReadFileOrDie(dir + "/live.prom");
  EXPECT_NE(prom.find("\nps2_live_subscriptions 1\n"), std::string::npos);
  const std::string json = ReadFileOrDie(dir + "/live.json");
  EXPECT_NE(json.find("\"live_subscriptions\": 1"), std::string::npos);
}

}  // namespace
}  // namespace ps2
