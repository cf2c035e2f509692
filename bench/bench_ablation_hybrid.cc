// Ablations of the hybrid partitioner's design choices (DESIGN.md §5):
//  1. the ComputeNumberPartitions dynamic program vs a naive equal split,
//  2. the text-similarity threshold delta,
//  3. the balance constraint sigma.
// Reported metric: estimated total Definition-1 load and balance of the
// resulting plan on the same workload sample.
#include "bench_util.h"
#include "partition/hybrid.h"

using namespace ps2;
using namespace ps2::bench;

int main() {
  InitBench("ablation_hybrid");
  std::printf("Hybrid partitioner ablations (STS-US-Q3, mu=60k, "
              "8 workers)\n");
  Env env = MakeEnv("US", QueryKind::kQ3, 60000, 40000);
  const WorkloadSample& sample = env.stream.sample;
  HybridPartitioner hybrid;

  {
    PrintHeader("Ablation: ComputeNumberPartitions DP vs equal split",
                {"variant", "est.total load", "est.balance"});
    for (const bool use_dp : {true, false}) {
      PartitionConfig cfg;
      cfg.num_workers = 8;
      cfg.use_number_partitions_dp = use_dp;
      const PartitionPlan plan = hybrid.Build(sample, *env.vocab, cfg);
      const auto report =
          EstimatePlanLoad(plan, sample, cfg.cost);
      PrintCell(use_dp ? "DP (paper)" : "equal split");
      PrintCell(report.total_load, "%.0f");
      PrintCell(report.balance, "%.2f");
      EndRow();
    }
  }
  {
    PrintHeader("Ablation: similarity threshold delta",
                {"delta", "est.total load", "text cells", "est.balance"});
    for (const double delta : {0.1, 0.25, 0.4, 0.6, 0.9}) {
      PartitionConfig cfg;
      cfg.num_workers = 8;
      cfg.delta = delta;
      const PartitionPlan plan = hybrid.Build(sample, *env.vocab, cfg);
      const auto report =
          EstimatePlanLoad(plan, sample, cfg.cost);
      PrintCell(delta, "%.2f");
      PrintCell(report.total_load, "%.0f");
      PrintCell(static_cast<double>(plan.NumTextCells()), "%.0f");
      PrintCell(report.balance, "%.2f");
      EndRow();
    }
  }
  {
    PrintHeader("Ablation: balance constraint sigma",
                {"sigma", "est.total load", "est.balance"});
    for (const double sigma : {1.1, 1.5, 2.0, 4.0}) {
      PartitionConfig cfg;
      cfg.num_workers = 8;
      cfg.sigma = sigma;
      const PartitionPlan plan = hybrid.Build(sample, *env.vocab, cfg);
      const auto report =
          EstimatePlanLoad(plan, sample, cfg.cost);
      PrintCell(sigma, "%.1f");
      PrintCell(report.total_load, "%.0f");
      PrintCell(report.balance, "%.2f");
      EndRow();
    }
  }
  return 0;
}
