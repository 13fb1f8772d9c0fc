// Micro benchmarks for the diffusion engine: cascade simulation and
// RR-set generation throughput, including the ablation called out in
// DESIGN.md (epoch-stamped scratch vs a fresh context per simulation).

#include <benchmark/benchmark.h>

#include "diffusion/cascade.h"
#include "diffusion/fused_cascade.h"
#include "diffusion/rr_sets.h"
#include "framework/datasets.h"
#include "graph/weights.h"

namespace imbench {
namespace {

Graph& WcGraph() {
  static Graph& graph = *new Graph([] {
    Graph g = MakeDataset("nethept", DatasetScale::kBench);
    AssignWeightedCascade(g);
    return g;
  }());
  return graph;
}

Graph& IcGraph() {
  static Graph& graph = *new Graph([] {
    Graph g = MakeDataset("nethept", DatasetScale::kBench);
    AssignConstantWeights(g, 0.1);
    return g;
  }());
  return graph;
}

Graph& LtGraph() {
  static Graph& graph = *new Graph([] {
    Graph g = MakeDataset("nethept", DatasetScale::kBench);
    AssignLtUniform(g);
    return g;
  }());
  return graph;
}

void BM_CascadeIcWc(benchmark::State& state) {
  const Graph& graph = WcGraph();
  CascadeContext context(graph.num_nodes());
  Rng rng(1);
  const std::vector<NodeId> seeds = {0, 7, 42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.Simulate(
        graph, DiffusionKind::kIndependentCascade, seeds, rng));
  }
}
BENCHMARK(BM_CascadeIcWc);

void BM_CascadeIcConstant(benchmark::State& state) {
  const Graph& graph = IcGraph();
  CascadeContext context(graph.num_nodes());
  Rng rng(2);
  const std::vector<NodeId> seeds = {0, 7, 42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.Simulate(
        graph, DiffusionKind::kIndependentCascade, seeds, rng));
  }
}
BENCHMARK(BM_CascadeIcConstant);

void BM_CascadeLt(benchmark::State& state) {
  const Graph& graph = LtGraph();
  CascadeContext context(graph.num_nodes());
  Rng rng(3);
  const std::vector<NodeId> seeds = {0, 7, 42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.Simulate(
        graph, DiffusionKind::kLinearThreshold, seeds, rng));
  }
}
BENCHMARK(BM_CascadeLt);

// Ablation: constructing a fresh CascadeContext per simulation pays an
// O(n) clear each time — the epoch-stamp design exists to avoid this.
void BM_CascadeFreshContextAblation(benchmark::State& state) {
  const Graph& graph = WcGraph();
  Rng rng(4);
  const std::vector<NodeId> seeds = {0, 7, 42};
  for (auto _ : state) {
    CascadeContext context(graph.num_nodes());
    benchmark::DoNotOptimize(context.Simulate(
        graph, DiffusionKind::kIndependentCascade, seeds, rng));
  }
}
BENCHMARK(BM_CascadeFreshContextAblation);

// Fused kernels: one iteration is a whole 64-simulation block, so compare
// items-per-second here against 64x the scalar cascade benchmarks.
void BM_FusedBlockIcWc(benchmark::State& state) {
  const Graph& graph = WcGraph();
  FusedCascadeContext context(graph);
  const std::vector<NodeId> seeds = {0, 7, 42};
  NodeId gamma[kFusedLanes];
  uint64_t block = 0;
  for (auto _ : state) {
    context.RunBlock(DiffusionKind::kIndependentCascade, seeds, 1, block++,
                     kFusedLanes, gamma);
    benchmark::DoNotOptimize(gamma[0]);
  }
  state.SetItemsProcessed(state.iterations() * kFusedLanes);
}
BENCHMARK(BM_FusedBlockIcWc);

void BM_FusedBlockIcConstant(benchmark::State& state) {
  const Graph& graph = IcGraph();
  FusedCascadeContext context(graph);
  const std::vector<NodeId> seeds = {0, 7, 42};
  NodeId gamma[kFusedLanes];
  uint64_t block = 0;
  for (auto _ : state) {
    context.RunBlock(DiffusionKind::kIndependentCascade, seeds, 2, block++,
                     kFusedLanes, gamma);
    benchmark::DoNotOptimize(gamma[0]);
  }
  state.SetItemsProcessed(state.iterations() * kFusedLanes);
}
BENCHMARK(BM_FusedBlockIcConstant);

void BM_FusedBlockLt(benchmark::State& state) {
  const Graph& graph = LtGraph();
  FusedCascadeContext context(graph);
  const std::vector<NodeId> seeds = {0, 7, 42};
  NodeId gamma[kFusedLanes];
  uint64_t block = 0;
  for (auto _ : state) {
    context.RunBlock(DiffusionKind::kLinearThreshold, seeds, 3, block++,
                     kFusedLanes, gamma);
    benchmark::DoNotOptimize(gamma[0]);
  }
  state.SetItemsProcessed(state.iterations() * kFusedLanes);
}
BENCHMARK(BM_FusedBlockLt);

void BM_RrSetIcWc(benchmark::State& state) {
  const Graph& graph = WcGraph();
  RrSampler sampler(graph, DiffusionKind::kIndependentCascade);
  Rng rng(5);
  std::vector<NodeId> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Generate(rng, out));
  }
}
BENCHMARK(BM_RrSetIcWc);

void BM_RrSetIcConstant(benchmark::State& state) {
  const Graph& graph = IcGraph();
  RrSampler sampler(graph, DiffusionKind::kIndependentCascade);
  Rng rng(6);
  std::vector<NodeId> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Generate(rng, out));
  }
}
BENCHMARK(BM_RrSetIcConstant);

void BM_RrSetLt(benchmark::State& state) {
  const Graph& graph = LtGraph();
  RrSampler sampler(graph, DiffusionKind::kLinearThreshold);
  Rng rng(7);
  std::vector<NodeId> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Generate(rng, out));
  }
}
BENCHMARK(BM_RrSetLt);

void BM_GreedyMaxCover(benchmark::State& state) {
  const Graph& graph = WcGraph();
  RrSampler sampler(graph, DiffusionKind::kIndependentCascade);
  Rng rng(8);
  RrCollection collection(graph.num_nodes());
  std::vector<NodeId> out;
  for (int i = 0; i < 20000; ++i) {
    sampler.Generate(rng, out);
    collection.AppendSet(out);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(collection.GreedyMaxCover(50));
  }
}
BENCHMARK(BM_GreedyMaxCover);

}  // namespace
}  // namespace imbench
