// Scaling micro benchmark for the RR-sampling engine (the one behind
// --threads). Generates a fixed corpus on a Barabási–Albert graph with
// 100K nodes under WC weights and sweeps the thread count; the corpus is
// bit-identical at every thread count, so the only thing that changes
// across rows is wall-clock time.
//
// Each row builds a private ThreadPool with (threads - 1) workers so the
// sweep exercises real worker threads regardless of what the shared pool
// resolved to. On a single-core machine the pool parks its workers behind
// the one CPU and rows collapse to sequential throughput; the expected
// near-linear scaling only materializes on multicore hardware (see
// EXPERIMENTS.md, "Parallel sampling").

#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "diffusion/rr_sets.h"
#include "graph/generators.h"
#include "graph/weights.h"

namespace imbench {
namespace {

constexpr NodeId kNodes = 100000;
constexpr uint32_t kAttachEdges = 5;
constexpr uint64_t kSetsPerIteration = 2000;

Graph& BaWcGraph() {
  static Graph& graph = *new Graph([] {
    Rng rng(1);
    EdgeList list = BarabasiAlbert(kNodes, kAttachEdges, rng);
    Graph g = Graph::FromArcs(list.num_nodes, std::move(list.arcs));
    AssignWeightedCascade(g);
    return g;
  }());
  return graph;
}

void BM_RrGenerationThreads(benchmark::State& state) {
  const Graph& graph = BaWcGraph();
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  ThreadPool pool(threads - 1);
  SamplerOptions options;
  options.threads = threads;
  options.pool = &pool;
  for (auto _ : state) {
    std::unique_ptr<RrEngine> engine = MakeRrEngine(graph, options);
    RrCollection corpus(graph.num_nodes());
    const RrBatchResult result =
        engine->Generate(/*seed=*/7, kSetsPerIteration, corpus, nullptr);
    benchmark::DoNotOptimize(result);
    benchmark::DoNotOptimize(corpus.TotalEntries());
  }
  state.SetItemsProcessed(state.iterations() * kSetsPerIteration);
}
BENCHMARK(BM_RrGenerationThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_RrGenerationLtThreads(benchmark::State& state) {
  static Graph& graph = *new Graph([] {
    Rng rng(2);
    EdgeList list = BarabasiAlbert(kNodes, kAttachEdges, rng);
    Graph g = Graph::FromArcs(list.num_nodes, std::move(list.arcs));
    AssignLtUniform(g);
    return g;
  }());
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  ThreadPool pool(threads - 1);
  SamplerOptions options;
  options.kind = DiffusionKind::kLinearThreshold;
  options.threads = threads;
  options.pool = &pool;
  for (auto _ : state) {
    std::unique_ptr<RrEngine> engine = MakeRrEngine(graph, options);
    RrCollection corpus(graph.num_nodes());
    const RrBatchResult result =
        engine->Generate(/*seed=*/7, kSetsPerIteration, corpus, nullptr);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * kSetsPerIteration);
}
BENCHMARK(BM_RrGenerationLtThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Parallel spread evaluation through the unified EstimateSpread() API is
// covered by micro_diffusion; this file isolates corpus generation, which
// dominates TIM+/IMM/RIS run time (Fig. 7 of the paper).

}  // namespace
}  // namespace imbench
