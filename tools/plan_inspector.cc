// plan_inspector: builds a partition plan with any algorithm over a
// synthetic workload and prints a human-readable summary — an ASCII map of
// the worker assignment, per-worker load estimates and the text/space mix.
// Useful for eyeballing what a partitioner actually did.
//
//   plan_inspector [partitioner] [dataset] [workers] [queries Q1|Q2|Q3]
//   e.g.  plan_inspector hybrid US 8 Q3
//
// It can also open a durability directory and dump what a recovery would
// load: the checkpointed plan, query count, vocabulary size and the WAL
// tail.
//
//   plan_inspector --checkpoint <dir>
//
// A shard-fabric root directory (one SHARDMAP + shard-<i>/ subdirectories)
// is inspected with --shards: the cell -> shard ownership map, the map
// version, and a read-only recovery summary of every shard.
//
//   plan_inspector --shards <dir>
//
// --metrics stands the durable state back up (a real Restore, single
// engine or fabric) and prints the Prometheus rendering of its metrics
// snapshot — a quick way to check what a scraper would see before wiring
// the exporter into a deployment.
//
//   plan_inspector --metrics <dir>
#include <cstdio>
#include <cstring>
#include <string>

#include "partition/plan.h"
#include "persist/durability.h"
#include "runtime/ps2stream.h"
#include "shard/shard_map.h"
#include "subscribe/spec.h"
#include "workload/stream_gen.h"
#include "workload/synthetic_corpus.h"

using namespace ps2;

namespace {

// ASCII map (downsample to at most 32x32): digit = worker id of a
// space-routed cell, '#' = text-routed.
void PrintPlanMap(const PartitionPlan& plan) {
  const uint32_t side = plan.grid.side();
  const uint32_t step = side > 32 ? side / 32 : 1;
  for (uint32_t cy = 0; cy < side; cy += step) {
    for (uint32_t cx = 0; cx < side; cx += step) {
      const CellRoute& r = plan.cells[plan.grid.ToId(cx, cy)];
      if (r.IsText()) {
        std::putchar('#');
      } else {
        std::putchar(r.worker < 10 ? '0' + r.worker
                                   : 'a' + (r.worker - 10) % 26);
      }
    }
    std::putchar('\n');
  }
}

int InspectCheckpoint(const std::string& dir) {
  RecoveredState state;
  // Read-only: inspection must not truncate a torn WAL tail — that is the
  // actual recovery's job, and the corrupt bytes are forensic evidence.
  if (!RecoverState(dir, &state, /*truncate_torn=*/false)) {
    std::fprintf(stderr,
                 "no usable checkpoint at '%s' (missing CURRENT, or the "
                 "committed checkpoint failed validation)\n",
                 dir.c_str());
    return 1;
  }
  std::printf("durable state at %s\n", dir.c_str());
  std::printf("checkpoint: seq %llu, lsn high-water %llu\n",
              (unsigned long long)state.checkpoint_seq,
              (unsigned long long)state.last_lsn);
  std::printf("wal tail:   %llu records replayed across %d segment(s) "
              "(%llu subscribe, %llu unsubscribe, %llu update, "
              "%llu cell-route), %llu bytes\n",
              (unsigned long long)state.wal.records, state.wal_segments,
              (unsigned long long)state.wal.subscribes,
              (unsigned long long)state.wal.unsubscribes,
              (unsigned long long)state.wal.updates,
              (unsigned long long)state.wal.cell_routes,
              (unsigned long long)state.wal.bytes_replayed);
  if (state.wal.truncated) {
    std::printf("            torn tail: recovery would truncate %llu "
                "trailing bytes (left untouched by this inspection)\n",
                (unsigned long long)state.wal.truncated_bytes);
  }
  std::printf("vocabulary: %zu terms (%llu occurrences)\n",
              state.vocab.size(),
              (unsigned long long)state.vocab.TotalCount());
  std::printf("queries:    %zu live (next id %llu), next object id %llu\n",
              state.queries.size(),
              (unsigned long long)state.next_query_id,
              (unsigned long long)state.next_object_id);
  size_t per_class[3] = {0, 0, 0};
  for (const STSQuery& q : state.queries) {
    ++per_class[static_cast<size_t>(q.cls)];
  }
  std::printf("classes:    %zu boolean, %zu similarity, %zu top-k\n",
              per_class[0], per_class[1], per_class[2]);
  for (const STSQuery& q : state.queries) {
    size_t terms = 0;
    for (const auto& clause : q.expr.clauses()) terms += clause.size();
    std::printf("  q%-6llu %-10s", (unsigned long long)q.id,
                SubscriptionClassName(q.cls));
    if (q.cls == SubscriptionClass::kSimilarity) {
      std::printf(" tau=%.3f", q.tau);
    } else if (q.cls == SubscriptionClass::kTopK) {
      std::printf(" k=%u", q.k);
    }
    std::printf(" region=%s terms=%zu\n", q.region.ToString().c_str(),
                terms);
  }
  if (!state.topk.empty()) {
    size_t held = 0;
    for (const TopKEntry& e : state.topk.entries) held += e.held ? 1 : 0;
    std::printf("top-k:      %zu checkpointed entries (%zu held, %zu "
                "buffered), watermark %lld us\n",
                state.topk.entries.size(), held,
                state.topk.entries.size() - held,
                (long long)state.topk.watermark_us);
  }
  std::printf("plan: %ux%u grid over %s, %d workers, "
              "%zu / %u text-routed cells\n",
              state.plan.grid.side(), state.plan.grid.side(),
              state.plan.grid.bounds().ToString().c_str(),
              state.plan.num_workers, state.plan.NumTextCells(),
              state.plan.grid.NumCells());
  if (state.had_snapshot) {
    size_t h2_terms = 0;
    for (CellId c = 0; c < state.snapshot.NumCells(); ++c) {
      const RoutingSnapshot::Cell& cell = state.snapshot.cell(c);
      if (cell.IsText()) h2_terms += cell.text->h2.size();
    }
    std::printf("snapshot:   version %llu, %zu live H2 term entries\n",
                (unsigned long long)state.snapshot.version, h2_terms);
  }
  std::printf("\n");
  PrintPlanMap(state.plan);
  return 0;
}

// ASCII map of the cell -> shard assignment (downsampled like the plan
// map): digit/letter = owning shard.
void PrintShardMap(const ShardMap& map, uint32_t side) {
  const uint32_t step = side > 32 ? side / 32 : 1;
  for (uint32_t cy = 0; cy < side; cy += step) {
    for (uint32_t cx = 0; cx < side; cx += step) {
      const ShardId s = map.OwnerOf(cy * side + cx);
      std::putchar(s < 10 ? '0' + s : 'a' + (s - 10) % 26);
    }
    std::putchar('\n');
  }
}

int InspectShards(const std::string& dir) {
  ShardMap map;
  if (!ReadShardMapFile(ShardMapPath(dir), &map)) {
    std::fprintf(stderr,
                 "no usable SHARDMAP at '%s' (not a fabric root, or the "
                 "file failed CRC validation)\n",
                 dir.c_str());
    return 1;
  }
  std::printf("shard fabric at %s\n", dir.c_str());
  std::printf("shardmap: version %llu, %d shard(s), %zu cells\n",
              (unsigned long long)map.version, map.num_shards,
              map.cell_shard.size());

  // Per-shard ownership + read-only recovery summaries.
  std::vector<size_t> cells_owned(static_cast<size_t>(map.num_shards), 0);
  for (const ShardId s : map.cell_shard) {
    ++cells_owned[static_cast<size_t>(s)];
  }
  uint32_t side = 1;
  while (side * side < map.cell_shard.size()) side *= 2;
  for (int s = 0; s < map.num_shards; ++s) {
    const std::string shard_dir = ShardDirPath(dir, s);
    RecoveredState state;
    if (RecoverState(shard_dir, &state, /*truncate_torn=*/false)) {
      std::printf(
          "shard %d: %zu cells owned, %zu live queries, checkpoint seq "
          "%llu, %llu WAL records%s, vocab %zu terms\n",
          s, cells_owned[static_cast<size_t>(s)], state.queries.size(),
          (unsigned long long)state.checkpoint_seq,
          (unsigned long long)state.wal.records,
          state.wal.truncated ? " (torn tail)" : "", state.vocab.size());
    } else {
      std::printf("shard %d: %zu cells owned, NO usable durable state at %s\n",
                  s, cells_owned[static_cast<size_t>(s)],
                  shard_dir.c_str());
    }
  }
  std::printf("\ncell -> shard ownership:\n");
  PrintShardMap(map, side);
  return 0;
}

int InspectMetrics(const std::string& dir) {
  PS2Stream ps2;
  if (!ps2.Restore(dir)) {
    std::fprintf(stderr,
                 "no restorable state at '%s' (expects a durability "
                 "directory or a shard-fabric root)\n",
                 dir.c_str());
    return 1;
  }
  std::fputs(ps2.MetricsPrometheus().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--checkpoint") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "usage: plan_inspector --checkpoint <dir>\n");
      return 1;
    }
    return InspectCheckpoint(argv[2]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--shards") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "usage: plan_inspector --shards <dir>\n");
      return 1;
    }
    return InspectShards(argv[2]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--metrics") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "usage: plan_inspector --metrics <dir>\n");
      return 1;
    }
    return InspectMetrics(argv[2]);
  }

  const std::string algo = argc > 1 ? argv[1] : "hybrid";
  const std::string dataset = argc > 2 ? argv[2] : "US";
  const int workers = argc > 3 ? std::atoi(argv[3]) : 8;
  const std::string qset = argc > 4 ? argv[4] : "Q3";

  auto partitioner = MakePartitioner(algo);
  if (partitioner == nullptr) {
    std::fprintf(stderr,
                 "unknown partitioner '%s' (try: frequency hypergraph "
                 "metric grid kdtree rtree hybrid)\n",
                 algo.c_str());
    return 1;
  }

  Vocabulary vocab;
  CorpusConfig ccfg = dataset == "UK" ? CorpusConfig::UkPreset()
                                      : CorpusConfig::UsPreset();
  SyntheticCorpus corpus(ccfg, &vocab);
  corpus.Generate(20000);
  QueryGenConfig qcfg;
  qcfg.kind = qset == "Q1"   ? QueryKind::kQ1
              : qset == "Q2" ? QueryKind::kQ2
                             : QueryKind::kQ3;
  QueryGenerator qgen(qcfg, &corpus);
  StreamConfig scfg;
  scfg.num_objects = 30000;
  scfg.mu = 30000;
  const GeneratedStream stream = GenerateStream(corpus, qgen, scfg);

  PartitionConfig cfg;
  cfg.num_workers = workers;
  const PartitionPlan plan =
      partitioner->Build(stream.sample, vocab, cfg);

  std::printf("partitioner=%s dataset=%s workers=%d queries=%s\n",
              algo.c_str(), dataset.c_str(), workers, qset.c_str());
  std::printf("grid: %ux%u cells over %s\n", plan.grid.side(),
              plan.grid.side(), plan.grid.bounds().ToString().c_str());
  std::printf("text-routed cells: %zu / %u\n\n", plan.NumTextCells(),
              plan.grid.NumCells());

  PrintPlanMap(plan);

  const PlanLoadReport report =
      EstimatePlanLoad(plan, stream.sample, cfg.cost);
  std::printf("\nestimated Definition-1 loads (sample of %zu objects, "
              "%zu inserts):\n",
              stream.sample.objects.size(), stream.sample.inserts.size());
  for (int w = 0; w < workers; ++w) {
    std::printf("  worker %2d: load %12.0f  (objects %llu, inserts %llu)\n",
                w, report.loads[w],
                (unsigned long long)report.tallies[w].objects,
                (unsigned long long)report.tallies[w].inserts);
  }
  std::printf("total %.0f, balance Lmax/Lmin = %.2f\n", report.total_load,
              report.balance);
  std::printf("dispatcher plan footprint: %.2f MB\n",
              plan.MemoryBytes() / 1048576.0);
  return 0;
}
