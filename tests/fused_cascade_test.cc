// Differential and contract tests for the bit-parallel fused MC kernels
// (diffusion/fused_cascade.h) and their EstimateSpread wiring.
//
// The anchor is FusedScalarReplay: a plain sequential BFS that re-derives
// the exact coin masks / thresholds of one fused lane. Every lane of every
// block must match it bit for bit, across all six weight models — that
// pins the AND/OR coin-mask ladder, the block-seed derivation, and the
// LT fixed-point threshold/accumulator scheme all at once.
#include "diffusion/fused_cascade.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "diffusion/spread.h"
#include "framework/registry.h"
#include "framework/run_guard.h"
#include "framework/trace.h"
#include "graph/graph.h"
#include "graph/weights.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

// A small graph with hubs, cycles, cross edges and parallel-ish structure:
// enough topology diversity that an order-dependent bug in the kernels
// cannot hide behind a tree or a path.
Graph DiverseGraph(NodeId n = 18) {
  std::vector<Arc> arcs;
  for (NodeId i = 0; i < n; ++i) {
    arcs.push_back(Arc{i, (i + 1) % n});
    const NodeId far = (i * 5 + 2) % n;
    if (far != i) arcs.push_back(Arc{i, far});
    if (i % 3 == 0) {
      const NodeId hop = (i * 7 + 4) % n;
      if (hop != i) arcs.push_back(Arc{i, hop});
    }
  }
  return Graph::FromArcs(n, arcs);
}

// A skewed LT fixture. Node 0 feeds most of kFeeders nodes, which form a
// chain and all point at one hub, so a hub lane's sum takes up to
// kFeeders adds. Node `heavy` gets in-weights 0.49, 0.49 and 1.0 (from the
// hub) after the model's own, an in-sum of 1.98 > 1: in a lane whose
// threshold is above 0.98, the hub's 2^kLtBits lands on a sum of
// 0.98 * 2^kLtBits, near the 2^32 bound of the no-overflow argument.
constexpr NodeId kFeeders = 300;
constexpr NodeId kHub = kFeeders + 1;
constexpr NodeId kHeavy = kFeeders + 2;

Graph SkewedLtGraph(WeightModel model) {
  const NodeId n = kFeeders + 8;
  std::vector<Arc> arcs;
  for (NodeId i = 1; i <= kFeeders; ++i) {
    if (i % 4 != 0) arcs.push_back(Arc{0, i});
    if (i < kFeeders) arcs.push_back(Arc{i, i + 1});
    arcs.push_back(Arc{i, kHub});
  }
  for (const NodeId source : {NodeId{1}, NodeId{2}, kHub}) {
    arcs.push_back(Arc{source, kHeavy});
  }
  arcs.push_back(Arc{kHub, 5});
  arcs.push_back(Arc{kHub, kHeavy + 1});
  for (NodeId i = kHeavy; i + 1 < n; ++i) arcs.push_back(Arc{i, i + 1});
  arcs.push_back(Arc{n - 1, 0});
  Graph graph = Graph::FromArcs(n, std::move(arcs));
  Rng wrng(0x5eed);
  AssignWeights(graph, model, 0.3, wrng);
  std::vector<double> weights(graph.weights().begin(), graph.weights().end());
  weights[graph.FindEdge(1, kHeavy)] = 0.49;
  weights[graph.FindEdge(2, kHeavy)] = 0.49;
  weights[graph.FindEdge(kHub, kHeavy)] = 1.0;
  graph.SetWeights(weights);
  return graph;
}

TEST(FusedKernelTest, LtSkewedGraphMatchesScalarReplay) {
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0}, {kFeeders / 2}, {0, kHeavy}};
  for (const WeightModel model : {WeightModel::kLtUniform,
                                  WeightModel::kLtRandom,
                                  WeightModel::kLtParallel}) {
    const Graph graph = SkewedLtGraph(model);
    ASSERT_GT(graph.InWeightSum(kHeavy), 1.0);
    FusedCascadeContext context(graph);
    NodeId gamma[kFusedLanes];
    for (const auto& seeds : seed_sets) {
      for (const uint64_t block : {uint64_t{0}, uint64_t{5}}) {
        context.RunBlock(DiffusionKind::kLinearThreshold, seeds, 42, block,
                         kFusedLanes, gamma);
        for (uint32_t lane = 0; lane < kFusedLanes; ++lane) {
          const NodeId replay =
              FusedScalarReplay(graph, DiffusionKind::kLinearThreshold,
                                seeds, 42, block * 64 + lane);
          ASSERT_EQ(gamma[lane], replay)
              << "model=" << WeightModelName(model) << " seeds="
              << seeds.size() << " block=" << block << " lane=" << lane;
        }
      }
    }
  }
}

const WeightModel kAllModels[] = {
    WeightModel::kIcConstant, WeightModel::kWc,       WeightModel::kTrivalency,
    WeightModel::kLtUniform,  WeightModel::kLtRandom, WeightModel::kLtParallel,
};

TEST(FusedKernelTest, BlockGammaMatchesScalarReplayAcrossModels) {
  const std::vector<std::vector<NodeId>> seed_sets = {{0}, {0, 3}, {1, 5, 7}};
  for (const WeightModel model : kAllModels) {
    Graph graph = DiverseGraph();
    Rng wrng(0x5eed);
    AssignWeights(graph, model, 0.3, wrng);
    const DiffusionKind kind = DiffusionKindFor(model);
    FusedCascadeContext context(graph);
    NodeId gamma[kFusedLanes];
    for (const auto& seeds : seed_sets) {
      for (const uint64_t block : {uint64_t{0}, uint64_t{3}}) {
        context.RunBlock(kind, seeds, 42, block, kFusedLanes, gamma);
        for (uint32_t lane = 0; lane < kFusedLanes; ++lane) {
          const NodeId replay =
              FusedScalarReplay(graph, kind, seeds, 42, block * 64 + lane);
          ASSERT_EQ(gamma[lane], replay)
              << "model=" << WeightModelName(model) << " block=" << block
              << " lane=" << lane;
        }
      }
    }
  }
}

TEST(FusedKernelTest, PartialLaneTailMatchesFullBlockPrefix) {
  Graph graph = DiverseGraph();
  AssignWeightedCascade(graph);
  const std::vector<NodeId> seeds = {0, 4};
  FusedCascadeContext context(graph);
  NodeId full[kFusedLanes];
  NodeId partial[kFusedLanes];
  context.RunBlock(DiffusionKind::kIndependentCascade, seeds, 7, 2,
                   kFusedLanes, full);
  context.RunBlock(DiffusionKind::kIndependentCascade, seeds, 7, 2, 17,
                   partial);
  for (uint32_t lane = 0; lane < 17; ++lane) {
    EXPECT_EQ(partial[lane], full[lane]) << "lane=" << lane;
  }
}

TEST(FusedKernelTest, EstimateBitIdenticalAcrossThreadCounts) {
  for (const WeightModel model : {WeightModel::kWc, WeightModel::kLtUniform}) {
    Graph graph = DiverseGraph();
    Rng wrng(0x5eed);
    AssignWeights(graph, model, 0.3, wrng);
    const DiffusionKind kind = DiffusionKindFor(model);
    const std::vector<NodeId> seeds = {0, 9};

    SpreadOptions sequential = testutil::SpreadOpts(512, 11);
    sequential.engine = McEngine::kFused64;
    const SpreadEstimate base =
        EstimateSpread(graph, kind, seeds, sequential);
    EXPECT_EQ(base.simulations, 512u);

    for (const uint32_t threads : {2u, 3u, 8u}) {
      ThreadPool pool(threads - 1);
      SpreadOptions parallel = testutil::SpreadOpts(512, 11, threads, &pool);
      parallel.engine = McEngine::kFused64;
      const SpreadEstimate est = EstimateSpread(graph, kind, seeds, parallel);
      EXPECT_EQ(est.mean, base.mean)
          << WeightModelName(model) << " threads=" << threads;
      EXPECT_EQ(est.stddev, base.stddev)
          << WeightModelName(model) << " threads=" << threads;
      EXPECT_EQ(est.simulations, base.simulations)
          << WeightModelName(model) << " threads=" << threads;
    }
  }
}

TEST(FusedKernelTest, AutoDispatchesBySimulationCount) {
  Graph graph = testutil::HubGraph();
  const std::vector<NodeId> seeds = {0};

  // >= 64 simulations: auto == fused, bitwise.
  SpreadOptions auto_many = testutil::SpreadOpts(128, 5);
  SpreadOptions fused = testutil::SpreadOpts(128, 5);
  fused.engine = McEngine::kFused64;
  const SpreadEstimate a = EstimateSpread(
      graph, DiffusionKind::kIndependentCascade, seeds, auto_many);
  const SpreadEstimate f =
      EstimateSpread(graph, DiffusionKind::kIndependentCascade, seeds, fused);
  EXPECT_DOUBLE_EQ(a.mean, f.mean);
  EXPECT_DOUBLE_EQ(a.stddev, f.stddev);

  // < 64 simulations: auto == scalar, bitwise.
  SpreadOptions auto_few = testutil::SpreadOpts(32, 5);
  SpreadOptions scalar = testutil::SpreadOpts(32, 5);
  scalar.engine = McEngine::kScalar;
  const SpreadEstimate af =
      EstimateSpread(graph, DiffusionKind::kIndependentCascade, seeds, auto_few);
  const SpreadEstimate s =
      EstimateSpread(graph, DiffusionKind::kIndependentCascade, seeds, scalar);
  EXPECT_DOUBLE_EQ(af.mean, s.mean);
  EXPECT_DOUBLE_EQ(af.stddev, s.stddev);
}

TEST(FusedKernelTest, PreTrippedGuardYieldsZeroSimulations) {
  Graph graph = testutil::HubGraph();
  RunGuard guard{RunBudget{}};
  guard.Trip(StopReason::kDeadline);
  SpreadOptions options = testutil::SpreadOpts(256, 3);
  options.engine = McEngine::kFused64;
  options.guard = &guard;
  const SpreadEstimate est = EstimateSpread(
      graph, DiffusionKind::kIndependentCascade, {{NodeId{0}}}, options);
  EXPECT_EQ(est.simulations, 0u);
  EXPECT_EQ(est.mean, 0.0);
}

TEST(FusedKernelTest, GuardTripTruncatesOnBlockBoundary) {
  Graph graph = DiverseGraph();
  AssignWeightedCascade(graph);
  const std::vector<NodeId> seeds = {0};
  for (const uint32_t threads : {1u, 4u}) {
    RunBudget budget;
    budget.deadline_seconds = 1e-9;  // trips on the first real clock check
    RunGuard guard(budget);
    ThreadPool pool(3);
    SpreadOptions options = testutil::SpreadOpts(
        200, 13, threads, threads > 1 ? &pool : nullptr);
    options.engine = McEngine::kFused64;
    options.guard = &guard;
    const SpreadEstimate est = EstimateSpread(
        graph, DiffusionKind::kIndependentCascade, seeds, options);
    // The guard is polled per 64-simulation block, so a trip can only
    // truncate the sample at a block boundary (or not at all).
    EXPECT_TRUE(est.simulations % 64 == 0 || est.simulations == 200)
        << "threads=" << threads << " simulations=" << est.simulations;
    EXPECT_LE(est.simulations, 200u);
  }
}

TEST(FusedKernelTest, TraceCountsFusedBlocksAndSimulations) {
  Graph graph = testutil::HubGraph();
  Trace trace;
  SpreadOptions options = testutil::SpreadOpts(256, 9);
  options.engine = McEngine::kFused64;
  options.trace = &trace;
  EstimateSpread(graph, DiffusionKind::kIndependentCascade, {{NodeId{0}}},
                 options);
  EXPECT_EQ(trace.Total(TraceCounter::kFusedBlocks), 4u);
  EXPECT_EQ(trace.Total(TraceCounter::kSimulations), 256u);

  // The scalar engine never counts fused blocks.
  Trace scalar_trace;
  SpreadOptions scalar = testutil::SpreadOpts(256, 9);
  scalar.engine = McEngine::kScalar;
  scalar.trace = &scalar_trace;
  EstimateSpread(graph, DiffusionKind::kIndependentCascade, {{NodeId{0}}},
                 scalar);
  EXPECT_EQ(scalar_trace.Total(TraceCounter::kFusedBlocks), 0u);
  EXPECT_EQ(scalar_trace.Total(TraceCounter::kSimulations), 256u);
}

TEST(FusedKernelDeathTest, StreamingWithFusedEngineChecks) {
  Graph graph = testutil::HubGraph();
  StreamingScratch scratch(graph.num_nodes(), 1);
  SpreadOptions options = testutil::SpreadOpts(128, 1);
  options.engine = McEngine::kFused64;
  options.streaming = &scratch;
  EXPECT_DEATH(EstimateSpread(graph, DiffusionKind::kIndependentCascade,
                              {{NodeId{0}}}, options),
               "streaming");
}

}  // namespace
}  // namespace imbench
