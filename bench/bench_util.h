#ifndef PS2_BENCH_BENCH_UTIL_H_
#define PS2_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "partition/plan.h"
#include "runtime/engine.h"
#include "runtime/sim_engine.h"
#include "runtime/threaded_engine.h"
#include "workload/stream_gen.h"
#include "workload/synthetic_corpus.h"

namespace ps2 {
namespace bench {

// One prepared experiment environment: a corpus (US or UK), a query
// generator (Q1/Q2/Q3), and a generated stream with mu live queries in
// steady state. All figure benches build these through the same helper so
// every algorithm sees identical input.
//
// Paper-to-bench scaling: the paper's query counts (5M/10M/20M) and tweet
// volumes are scaled by ~1/100 so a full figure reproduces in seconds; the
// *shapes* (who wins and why) depend on ratios — query range vs space,
// keyword frequency vs corpus — which are preserved. EXPERIMENTS.md lists
// the mapping next to each figure.
struct Env {
  std::unique_ptr<Vocabulary> vocab;
  std::unique_ptr<SyntheticCorpus> corpus;
  std::unique_ptr<QueryGenerator> qgen;
  GeneratedStream stream;
  std::string dataset;
  std::string query_set;
};

inline Env MakeEnv(const std::string& dataset, QueryKind kind, size_t mu,
                   size_t num_objects, uint64_t seed = 1) {
  Env env;
  env.dataset = dataset;
  env.vocab = std::make_unique<Vocabulary>();
  CorpusConfig ccfg = dataset == "US" ? CorpusConfig::UsPreset()
                                      : CorpusConfig::UkPreset();
  ccfg.seed += seed;
  // Benchmark-scale vocabularies. The ratio of distinct terms to live
  // queries controls how often an object's terms coincide with live rare
  // routing keys; tweets draw from millions of distinct terms, so at our
  // scaled-down query counts the vocabulary must stay much larger than the
  // live query count or Q2's rare keywords stop being rare in H2.
  ccfg.vocab_size = dataset == "US" ? 150000 : 80000;
  ccfg.topic_terms_per_city = 1500;
  env.corpus = std::make_unique<SyntheticCorpus>(ccfg, env.vocab.get());
  // Prime the vocabulary frequency profile before queries sample keywords.
  env.corpus->Generate(std::max<size_t>(20000, num_objects / 5));
  QueryGenConfig qcfg;
  qcfg.kind = kind;
  qcfg.seed = 99 + seed;
  // The paper draws side lengths in absolute km (Q1: 1..50km, Q2:
  // 1..100km). Relative to each extent that is very different: the US box
  // is ~4500km wide, the UK box ~700km, so UK queries cover a far larger
  // *fraction* of the space — which is exactly why space partitioning
  // degrades more on UK-Q2 (Figures 6/11).
  if (dataset == "US") {
    qcfg.q1_side_min_frac = 0.0003;
    qcfg.q1_side_max_frac = 0.012;
    qcfg.q2_side_min_frac = 0.0003;
    qcfg.q2_side_max_frac = 0.024;
  } else {
    qcfg.q1_side_min_frac = 0.0015;
    qcfg.q1_side_max_frac = 0.065;
    qcfg.q2_side_min_frac = 0.0015;
    qcfg.q2_side_max_frac = 0.13;
  }
  env.qgen = std::make_unique<QueryGenerator>(qcfg, env.corpus.get());
  env.query_set =
      std::string("STS-") + dataset + "-Q" +
      (kind == QueryKind::kQ1 ? "1" : kind == QueryKind::kQ2 ? "2" : "3");
  StreamConfig scfg;
  scfg.num_objects = num_objects;
  scfg.mu = mu;
  scfg.seed = 5 + seed;
  env.stream = GenerateStream(*env.corpus, *env.qgen, scfg);
  return env;
}

// Builds the plan with the named partitioner from the stream's sample and
// stands up a cluster with the setup queries pre-inserted.
inline std::unique_ptr<Cluster> MakeCluster(const Env& env,
                                            const std::string& partitioner,
                                            int workers,
                                            const PartitionConfig* base_cfg =
                                                nullptr) {
  PartitionConfig cfg = base_cfg != nullptr ? *base_cfg : PartitionConfig{};
  cfg.num_workers = workers;
  auto p = MakePartitioner(partitioner);
  const PartitionPlan plan =
      p->Build(env.stream.sample, *env.vocab, cfg);
  auto cluster = std::make_unique<Cluster>(plan, env.vocab.get());
  for (const auto& t : env.stream.setup) {
    cluster->Process(t);
  }
  cluster->ResetLoadWindow();
  return cluster;
}

// Runs the measured stream through the capacity simulator (measured
// per-delivery service times + virtual queueing; see SimOptions) and
// returns the report. `rate` is the virtual arrival rate.
inline SimReport RunCapacity(Cluster& cluster, const Env& env,
                             double rate = 50000.0,
                             bool enable_adjust = false) {
  SimOptions opts;
  opts.arrival_rate_tps = rate;
  opts.measure_service = true;
  opts.enable_adjust = enable_adjust;
  return RunSimulation(cluster, env.stream.stream, opts);
}

// ---- table printing + machine-readable JSON mirror -------------------------
//
// Every PrintHeader/PrintCell/EndRow call is mirrored into an in-memory
// table set; a bench that calls InitBench("figNN_x") at the top of main()
// gets a BENCH_figNN_x.json dump (written at exit, into $PS2_BENCH_JSON_DIR
// or the working directory) so CI and plotting scripts never have to parse
// the human-oriented tables. The dump is stamped with the machine it ran on
// (core count, CPU model, build type), so every figure names its hardware.

#ifndef PS2_BENCH_BUILD_TYPE
#define PS2_BENCH_BUILD_TYPE "unknown"
#endif

namespace detail {

struct JsonCell {
  std::string text;
  bool numeric = false;
  double value = 0.0;
};

struct JsonTable {
  std::string title;
  std::vector<std::string> columns;
  std::vector<std::vector<JsonCell>> rows;
  std::vector<JsonCell> current;
};

struct JsonState {
  std::string name;
  bool enabled = false;
  std::vector<JsonTable> tables;
};

inline JsonState& State() {
  static JsonState state;
  return state;
}

inline void JsonEscape(const std::string& in, std::string* out) {
  for (const char c : in) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) *out += c;
    }
  }
}

// The "model name" of the first CPU in /proc/cpuinfo.
inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

inline void DumpJson() {
  JsonState& s = State();
  if (!s.enabled) return;
  std::string dir = ".";
  if (const char* env = std::getenv("PS2_BENCH_JSON_DIR")) dir = env;
  const std::string path = dir + "/BENCH_" + s.name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::string out = "{\n  \"bench\": \"";
  JsonEscape(s.name, &out);
  out += "\",\n  \"machine\": {\"nproc\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": \"";
  JsonEscape(CpuModel(), &out);
  out += "\", \"build_type\": \"";
  JsonEscape(PS2_BENCH_BUILD_TYPE, &out);
  out += "\"},\n  \"tables\": [\n";
  for (size_t t = 0; t < s.tables.size(); ++t) {
    const JsonTable& table = s.tables[t];
    out += "    {\"title\": \"";
    JsonEscape(table.title, &out);
    out += "\",\n     \"columns\": [";
    for (size_t c = 0; c < table.columns.size(); ++c) {
      if (c > 0) out += ", ";
      out += "\"";
      JsonEscape(table.columns[c], &out);
      out += "\"";
    }
    out += "],\n     \"rows\": [\n";
    for (size_t r = 0; r < table.rows.size(); ++r) {
      out += "       [";
      for (size_t c = 0; c < table.rows[r].size(); ++c) {
        if (c > 0) out += ", ";
        const JsonCell& cell = table.rows[r][c];
        if (cell.numeric) {
          char buf[64];
          std::snprintf(buf, sizeof(buf), "%.17g", cell.value);
          out += buf;
        } else {
          out += "\"";
          JsonEscape(cell.text, &out);
          out += "\"";
        }
      }
      out += r + 1 < table.rows.size() ? "],\n" : "]\n";
    }
    out += t + 1 < s.tables.size() ? "     ]},\n" : "     ]}\n";
  }
  out += "  ]\n}\n";
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

inline void RecordCell(JsonCell cell) {
  JsonState& s = State();
  if (s.tables.empty()) return;
  s.tables.back().current.push_back(std::move(cell));
}

}  // namespace detail

// Names the bench and arms the BENCH_<name>.json dump at process exit.
inline void InitBench(const std::string& name) {
  detail::JsonState& s = detail::State();
  s.name = name;
  if (!s.enabled) {
    s.enabled = true;
    std::atexit(detail::DumpJson);
  }
}

inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  for (const auto& c : columns) std::printf("%-22s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) std::printf("%-22s", "------");
  std::printf("\n");
  detail::State().tables.push_back(detail::JsonTable{title, columns, {}, {}});
}

inline void PrintCell(const std::string& v) {
  std::printf("%-22s", v.c_str());
  detail::RecordCell(detail::JsonCell{v, false, 0.0});
}
inline void PrintCell(double v, const char* fmt = "%.1f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  std::printf("%-22s", buf);
  detail::RecordCell(detail::JsonCell{buf, true, v});
}
inline void EndRow() {
  std::printf("\n");
  detail::JsonState& s = detail::State();
  if (!s.tables.empty()) {
    s.tables.back().rows.push_back(std::move(s.tables.back().current));
    s.tables.back().current.clear();
  }
}

inline std::string Mb(size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f MB", bytes / 1048576.0);
  return buf;
}

}  // namespace bench
}  // namespace ps2

#endif  // PS2_BENCH_BENCH_UTIL_H_
