// Ablation (Section IV-C): routing cost of the kdt-tree (O(log) tree walk)
// versus the gridt index (O(1) cell lookup) on the dispatcher. The paper
// replaces the tree with the grid because fast streams overload the
// dispatcher; this bench quantifies that choice.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "dispatch/kdt_tree.h"

namespace ps2 {
namespace {

struct Fixture {
  bench::Env env;
  PartitionPlan plan;
  std::unique_ptr<KdtTree> tree;
  std::vector<SpatioTextualObject> objects;

  Fixture() {
    env = bench::MakeEnv("US", QueryKind::kQ3, 30000, 20000);
    PartitionConfig cfg;
    cfg.num_workers = 8;
    plan = MakePartitioner("hybrid")->Build(env.stream.sample, *env.vocab,
                                            cfg);
    tree = std::make_unique<KdtTree>(plan);
    objects = env.corpus->Generate(5000);
  }
};

Fixture& F() {
  static Fixture* f = new Fixture();
  return *f;
}

void BM_RouteObjectGridt(benchmark::State& state) {
  auto& f = F();
  std::vector<WorkerId> out;
  size_t i = 0;
  for (auto _ : state) {
    f.plan.RouteObject(f.objects[i++ % f.objects.size()], &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteObjectGridt);

void BM_RouteObjectKdtTree(benchmark::State& state) {
  auto& f = F();
  std::vector<WorkerId> out;
  size_t i = 0;
  for (auto _ : state) {
    f.tree->RouteObject(f.objects[i++ % f.objects.size()], &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("leaves=" + std::to_string(f.tree->NumLeaves()) +
                 " depth=" + std::to_string(f.tree->Depth()));
}
BENCHMARK(BM_RouteObjectKdtTree);

void BM_RouteQueryGridt(benchmark::State& state) {
  auto& f = F();
  std::vector<PartitionPlan::QueryRoute> out;
  size_t i = 0;
  const auto& qs = f.env.stream.sample.inserts;
  for (auto _ : state) {
    f.plan.RouteQuery(qs[i++ % qs.size()], &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RouteQueryGridt);

void BM_RouteQueryKdtTree(benchmark::State& state) {
  auto& f = F();
  std::vector<PartitionPlan::QueryRoute> out;
  size_t i = 0;
  const auto& qs = f.env.stream.sample.inserts;
  for (auto _ : state) {
    f.tree->RouteQuery(qs[i++ % qs.size()], &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RouteQueryKdtTree);

}  // namespace
}  // namespace ps2

BENCHMARK_MAIN();
