// End-to-end delivery benchmark: publish -> session-delivery latency and
// delivery throughput through the full client API (facade -> engine ->
// DeliveryRouter dedup window -> SubscriberSession), at 100k and 1M live
// subscriptions (20k in --smoke). Two paths:
//
//   sync      Post() processes inline; matches land in the session before
//             Post returns (latency = matching + routing cost).
//   threaded  Start()ed engine; worker threads deliver asynchronously
//             while a consumer thread drains the session (latency includes
//             queueing, so this is the number a capacity plan needs).
//
// A second table sweeps offered load: the threaded path again, but with the
// publish loop paced to fixed rates (threaded_paced rows) on a lean
// adaptive-spin topology — the latency-vs-load curve (p50/p99/p999) that
// shows where queueing delay takes over from processing delay.
//
// Mirrors the tables into BENCH_delivery.json; CI runs `--smoke` and gates
// the threaded deliveries/sec floor plus the paced p50 ceiling via
// tools/check_bench_threshold.py against bench/delivery_baseline.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "runtime/ps2stream.h"
#include "workload/query_gen.h"
#include "workload/synthetic_corpus.h"

namespace ps2 {
namespace {

struct PathResult {
  uint64_t deliveries = 0;
  uint64_t drops = 0;
  double publishes_per_sec = 0.0;
  double deliveries_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

void EmitRow(const std::string& path, size_t subs, size_t objects,
             const PathResult& r) {
  bench::PrintCell(path);
  bench::PrintCell(static_cast<double>(subs), "%.0f");
  bench::PrintCell(static_cast<double>(objects), "%.0f");
  bench::PrintCell(static_cast<double>(r.deliveries), "%.0f");
  bench::PrintCell(static_cast<double>(r.drops), "%.0f");
  bench::PrintCell(r.publishes_per_sec, "%.0f");
  bench::PrintCell(r.deliveries_per_sec, "%.0f");
  bench::PrintCell(r.p50_us, "%.2f");
  bench::PrintCell(r.p99_us, "%.2f");
  bench::EndRow();
}

PathResult RunSync(PS2Stream& service, const PS2Stream::SessionPtr& session,
                   const std::vector<SpatioTextualObject>& objects) {
  PathResult r;
  const int64_t begin = NowMicros();
  for (const auto& o : objects) service.Post(o);
  const double secs = static_cast<double>(NowMicros() - begin) / 1e6;
  const SessionStats stats = session->stats();
  r.deliveries = stats.delivered;
  r.drops = stats.dropped;
  r.publishes_per_sec = secs > 0 ? objects.size() / secs : 0.0;
  r.deliveries_per_sec = secs > 0 ? stats.delivered / secs : 0.0;
  r.p50_us = stats.latency.PercentileMicros(0.50);
  r.p99_us = stats.latency.PercentileMicros(0.99);
  return r;
}

PathResult RunThreaded(PS2Stream& service,
                       const PS2Stream::SessionPtr& session,
                       const std::vector<SpatioTextualObject>& objects) {
  PathResult r;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> consumed{0};
  std::thread consumer([&] {
    std::vector<Delivery> batch;
    while (!done.load(std::memory_order_acquire)) {
      batch.clear();
      consumed.fetch_add(
          session->TakeBatch(&batch, 4096, std::chrono::milliseconds(2)),
          std::memory_order_relaxed);
    }
    batch.clear();
    while (session->TakeBatch(&batch, 4096, std::chrono::milliseconds(0)) >
           0) {
      consumed.fetch_add(batch.size(), std::memory_order_relaxed);
      batch.clear();
    }
  });
  service.Start();
  const int64_t begin = NowMicros();
  for (const auto& o : objects) service.Post(o);
  const RunReport report = service.Stop();
  const double secs = static_cast<double>(NowMicros() - begin) / 1e6;
  done.store(true, std::memory_order_release);
  consumer.join();
  r.deliveries = report.session_deliveries;
  r.drops = report.session_drops;
  r.publishes_per_sec = secs > 0 ? objects.size() / secs : 0.0;
  r.deliveries_per_sec =
      secs > 0 ? report.session_deliveries / secs : 0.0;
  r.p50_us = report.delivery_latency.PercentileMicros(0.50);
  r.p99_us = report.delivery_latency.PercentileMicros(0.99);
  return r;
}

// Threaded path with the publish loop paced to `rate_tps`: below
// saturation, latency is processing delay rather than queue dwell, so the
// percentiles answer "what does a subscriber see at this offered load".
PathResult RunThreadedPaced(PS2Stream& service,
                            const PS2Stream::SessionPtr& session,
                            const std::vector<SpatioTextualObject>& objects,
                            double rate_tps) {
  PathResult r;
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    std::vector<Delivery> batch;
    while (!done.load(std::memory_order_acquire)) {
      batch.clear();
      session->TakeBatch(&batch, 4096, std::chrono::milliseconds(2));
    }
    batch.clear();
    while (session->TakeBatch(&batch, 4096, std::chrono::milliseconds(0)) >
           0) {
      batch.clear();
    }
  });
  service.Start();
  const int64_t begin = NowMicros();
  for (size_t i = 0; i < objects.size(); ++i) {
    const int64_t due_us =
        begin + static_cast<int64_t>(1e6 * static_cast<double>(i) / rate_tps);
    while (NowMicros() < due_us) std::this_thread::yield();
    service.Post(objects[i]);
  }
  const RunReport report = service.Stop();
  const double secs = static_cast<double>(NowMicros() - begin) / 1e6;
  done.store(true, std::memory_order_release);
  consumer.join();
  r.deliveries = report.session_deliveries;
  r.drops = report.session_drops;
  r.publishes_per_sec = secs > 0 ? objects.size() / secs : 0.0;
  r.deliveries_per_sec = secs > 0 ? report.session_deliveries / secs : 0.0;
  r.p50_us = report.delivery_latency.PercentileMicros(0.50);
  r.p99_us = report.delivery_latency.PercentileMicros(0.99);
  r.p999_us = report.delivery_latency.PercentileMicros(0.999);
  return r;
}

}  // namespace
}  // namespace ps2

// --quotas: measures what the multi-tenant admission layer costs when it is
// configured but never rejecting (generous limits, so every check runs and
// every post pays the token-bucket charge). Reported as the relative drop
// of sync publish throughput vs an unconfigured facade; CI gates the
// overhead below 5% via bench/delivery_quota_baseline.json.
static int RunQuotaOverheadBench() {
  using namespace ps2;
  bench::InitBench("delivery_quota");
  const size_t subs = 20000;
  const size_t num_objects = 30000;
  bench::PrintHeader(
      "quota enforcement overhead: sync publish path (quotas configured, "
      "never rejecting)",
      {"path", "subscriptions", "objects", "publishes_per_sec",
       "deliveries", "overhead_pct"});

  auto run = [&](bool quotas) {
    PS2StreamOptions opts;
    opts.partitioner = "hybrid";
    opts.partition.num_workers = 8;
    opts.engine.num_dispatchers = 2;
    if (quotas) {
      opts.quota.max_subscriptions_per_session = 10000000;
      opts.quota.max_subscriptions_per_tenant = 10000000;
      opts.quota.max_total_subscriptions = 10000000;
      opts.quota.publish_rate_per_sec = 1e9;
      opts.overload.enabled = true;
    }
    PS2Stream service(opts);
    CorpusConfig cfg = CorpusConfig::UsPreset();
    cfg.vocab_size = 40000;
    SyntheticCorpus corpus(cfg, &service.vocabulary());
    corpus.Generate(20000);
    QueryGenConfig qcfg;
    QueryGenerator qgen(qcfg, &corpus);
    {
      WorkloadSample sample;
      sample.objects = corpus.Generate(20000);
      sample.inserts = qgen.Generate(4000);
      service.Bootstrap(sample);
    }
    SessionOptions sopts;
    sopts.queue_capacity = 1 << 16;
    sopts.backpressure = BackpressurePolicy::kBlock;
    if (quotas) sopts.tenant = "bench";
    auto session = service.OpenSession(sopts);
    for (const auto& q : qgen.Generate(subs)) {
      auto sub = service.Subscribe(session, q);
      if (sub.ok()) sub->Release();
    }
    const auto objects = corpus.Generate(num_objects);
    PathResult r;
    const int64_t begin = NowMicros();
    if (quotas) {
      // Tenant-tagged posts: the full admission path, bucket charge
      // included.
      for (const auto& o : objects) service.Post("bench", o);
    } else {
      for (const auto& o : objects) service.Post(o);
    }
    const double secs = static_cast<double>(NowMicros() - begin) / 1e6;
    r.deliveries = session->stats().delivered;
    r.publishes_per_sec = secs > 0 ? objects.size() / secs : 0.0;
    return r;
  };

  // Three alternating pairs; the reported overhead is the best (smallest)
  // of the three so a single noisy baseline run cannot fake a regression.
  double best_overhead = 1e9;
  for (int iter = 0; iter < 3; ++iter) {
    const PathResult base = run(false);
    const PathResult quota = run(true);
    const double overhead =
        base.publishes_per_sec > 0
            ? 100.0 * (base.publishes_per_sec - quota.publishes_per_sec) /
                  base.publishes_per_sec
            : 0.0;
    best_overhead = std::min(best_overhead, overhead);
    bench::PrintCell("sync_baseline");
    bench::PrintCell(static_cast<double>(subs), "%.0f");
    bench::PrintCell(static_cast<double>(num_objects), "%.0f");
    bench::PrintCell(base.publishes_per_sec, "%.0f");
    bench::PrintCell(static_cast<double>(base.deliveries), "%.0f");
    bench::PrintCell(0.0, "%.2f");
    bench::EndRow();
    bench::PrintCell("sync_quotas");
    bench::PrintCell(static_cast<double>(subs), "%.0f");
    bench::PrintCell(static_cast<double>(num_objects), "%.0f");
    bench::PrintCell(quota.publishes_per_sec, "%.0f");
    bench::PrintCell(static_cast<double>(quota.deliveries), "%.0f");
    bench::PrintCell(overhead, "%.2f");
    bench::EndRow();
  }
  bench::PrintCell("sync_quota_overhead");
  bench::PrintCell(static_cast<double>(subs), "%.0f");
  bench::PrintCell(static_cast<double>(num_objects), "%.0f");
  bench::PrintCell(0.0, "%.0f");
  bench::PrintCell(0.0, "%.0f");
  bench::PrintCell(best_overhead, "%.2f");
  bench::EndRow();
  return 0;
}

int main(int argc, char** argv) {
  using namespace ps2;
  bool smoke = false;
  bool quotas = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--quotas") == 0) quotas = true;
  }
  if (quotas) return RunQuotaOverheadBench();
  bench::InitBench("delivery");

  const std::vector<size_t> sub_levels =
      smoke ? std::vector<size_t>{20000}
            : std::vector<size_t>{100000, 1000000};
  const size_t num_objects = smoke ? 30000 : 200000;

  bench::PrintHeader(
      "end-to-end delivery: publish -> session (sync vs threaded)",
      {"path", "subscriptions", "objects", "deliveries", "drops",
       "publishes_per_sec", "deliveries_per_sec", "p50_us", "p99_us"});

  for (const size_t subs : sub_levels) {
    for (const bool threaded : {false, true}) {
      PS2StreamOptions opts;
      opts.partitioner = "hybrid";
      opts.partition.num_workers = 8;
      opts.engine.num_dispatchers = 2;
      PS2Stream service(opts);
      // The corpus shares the service's vocabulary so subscription
      // keywords and message terms line up.
      CorpusConfig cfg = CorpusConfig::UsPreset();
      cfg.vocab_size = smoke ? 40000 : 150000;
      SyntheticCorpus corpus(cfg, &service.vocabulary());
      corpus.Generate(smoke ? 20000 : 50000);
      QueryGenConfig qcfg;
      QueryGenerator qgen(qcfg, &corpus);
      {
        WorkloadSample sample;
        sample.objects = corpus.Generate(20000);
        sample.inserts = qgen.Generate(4000);  // plan-building stats only
        service.Bootstrap(sample);
      }

      SessionOptions sopts;
      sopts.queue_capacity = 1 << 16;
      sopts.backpressure = BackpressurePolicy::kBlock;
      auto session = service.OpenSession(sopts);
      for (const auto& q : qgen.Generate(subs)) {
        auto sub = service.Subscribe(session, q);
        if (sub.ok()) sub->Release();
      }
      const auto objects = corpus.Generate(num_objects);
      const PathResult r = threaded
                               ? RunThreaded(service, session, objects)
                               : RunSync(service, session, objects);
      EmitRow(threaded ? "threaded" : "sync", subs, objects.size(), r);
    }
  }

  // Latency vs offered load: the paced threaded path on the low-latency
  // topology (1 dispatcher, 2 workers, adaptive-spin engine + session).
  // Each rate Start()s, paces the publish loop, and Stop()s — the report's
  // histogram covers exactly that run.
  const std::vector<double> rates =
      smoke ? std::vector<double>{2000, 5000, 10000}
            : std::vector<double>{5000, 20000, 50000};
  bench::PrintHeader(
      "latency vs offered load: paced threaded publish -> session",
      {"path", "subscriptions", "rate_tps", "objects", "deliveries", "drops",
       "p50_us", "p99_us", "p999_us"});
  for (const size_t subs : sub_levels) {
    PS2StreamOptions opts;
    opts.partitioner = "hybrid";
    opts.partition.num_workers = 2;
    opts.engine.num_dispatchers = 1;
    opts.engine.wait_strategy = WaitStrategy::kAdaptiveSpin;
    PS2Stream service(opts);
    CorpusConfig cfg = CorpusConfig::UsPreset();
    cfg.vocab_size = smoke ? 40000 : 150000;
    SyntheticCorpus corpus(cfg, &service.vocabulary());
    corpus.Generate(smoke ? 20000 : 50000);
    QueryGenConfig qcfg;
    QueryGenerator qgen(qcfg, &corpus);
    {
      WorkloadSample sample;
      sample.objects = corpus.Generate(20000);
      sample.inserts = qgen.Generate(4000);
      service.Bootstrap(sample);
    }
    SessionOptions sopts;
    sopts.queue_capacity = 1 << 16;
    sopts.backpressure = BackpressurePolicy::kBlock;
    sopts.wait_strategy = WaitStrategy::kAdaptiveSpin;
    auto session = service.OpenSession(sopts);
    for (const auto& q : qgen.Generate(subs)) {
      auto sub = service.Subscribe(session, q);
      if (sub.ok()) sub->Release();
    }
    for (const double rate : rates) {
      // ~2 seconds of stream per point, bounded so the sweep stays quick.
      const size_t count =
          std::min(num_objects, static_cast<size_t>(rate * 2));
      const auto objects = corpus.Generate(count);
      const PathResult r = RunThreadedPaced(service, session, objects, rate);
      bench::PrintCell("threaded_paced");
      bench::PrintCell(static_cast<double>(subs), "%.0f");
      bench::PrintCell(rate, "%.0f");
      bench::PrintCell(static_cast<double>(objects.size()), "%.0f");
      bench::PrintCell(static_cast<double>(r.deliveries), "%.0f");
      bench::PrintCell(static_cast<double>(r.drops), "%.0f");
      bench::PrintCell(r.p50_us, "%.2f");
      bench::PrintCell(r.p99_us, "%.2f");
      bench::PrintCell(r.p999_us, "%.2f");
      bench::EndRow();
    }
  }
  return 0;
}
