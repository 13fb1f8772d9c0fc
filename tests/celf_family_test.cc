#include <gtest/gtest.h>

#include "algorithms/celf.h"
#include "algorithms/celfpp.h"
#include "algorithms/greedy.h"
#include "framework/trace.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

SelectionInput InputFor(const Graph& graph, uint32_t k, Trace* trace,
                        DiffusionKind kind = DiffusionKind::kIndependentCascade) {
  SelectionInput input;
  input.graph = &graph;
  input.diffusion = kind;
  input.k = k;
  input.seed = 11;
  input.trace = trace;
  return input;
}

TEST(GreedyTest, PicksTheHubFirst) {
  Graph g = testutil::HubGraph();
  Greedy greedy(GreedyOptions{500});
  const SelectionResult result = greedy.Select(InputFor(g, 1, nullptr));
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_GT(result.internal_spread_estimate, 1.0);
}

TEST(GreedyTest, TwoStarsPicksBothHubs) {
  Graph g = testutil::TwoStars(1.0);
  Greedy greedy(GreedyOptions{200});
  const SelectionResult result = greedy.Select(InputFor(g, 2, nullptr));
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0], 0u);  // larger star first
  EXPECT_EQ(result.seeds[1], 4u);
}

TEST(CelfTest, MatchesGreedySeedsOnDeterministicGraph) {
  Graph g = testutil::TwoStars(1.0);
  Greedy greedy(GreedyOptions{100});
  Celf celf(CelfOptions{100});
  const auto greedy_seeds = greedy.Select(InputFor(g, 3, nullptr)).seeds;
  const auto celf_seeds = celf.Select(InputFor(g, 3, nullptr)).seeds;
  EXPECT_EQ(greedy_seeds[0], celf_seeds[0]);
  EXPECT_EQ(greedy_seeds[1], celf_seeds[1]);
}

TEST(CelfTest, LazyEvaluationSavesLookups) {
  Graph g = testutil::HubGraph();
  Trace greedy_trace, celf_trace;
  Greedy greedy(GreedyOptions{100});
  Celf celf(CelfOptions{100});
  greedy.Select(InputFor(g, 3, &greedy_trace));
  celf.Select(InputFor(g, 3, &celf_trace));
  EXPECT_LT(celf_trace.Total(TraceCounter::kNodeLookups),
            greedy_trace.Total(TraceCounter::kNodeLookups));
}

TEST(CelfPlusPlusTest, PicksTheHubFirst) {
  Graph g = testutil::HubGraph();
  CelfPlusPlus celfpp(CelfPlusPlusOptions{500});
  const SelectionResult result = celfpp.Select(InputFor(g, 2, nullptr));
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0], 0u);
}

TEST(CelfPlusPlusTest, SeedsAreDistinct) {
  Graph g = testutil::TwoStars(0.8);
  CelfPlusPlus celfpp(CelfPlusPlusOptions{300});
  const SelectionResult result = celfpp.Select(InputFor(g, 4, nullptr));
  std::set<NodeId> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), result.seeds.size());
}

TEST(CelfPlusPlusTest, NodeLookupsAtMostCelf) {
  // Myth M1: CELF++'s pre-emption trims node lookups (but not wall time).
  // On deterministic graphs the pre-emption always hits, so lookups must
  // not exceed CELF's.
  Graph g = testutil::TwoStars(1.0);
  Trace celf_trace, celfpp_trace;
  Celf celf(CelfOptions{100});
  CelfPlusPlus celfpp(CelfPlusPlusOptions{100});
  celf.Select(InputFor(g, 3, &celf_trace));
  celfpp.Select(InputFor(g, 3, &celfpp_trace));
  EXPECT_LE(celfpp_trace.Total(TraceCounter::kNodeLookups),
            celf_trace.Total(TraceCounter::kNodeLookups) + 1);
  // ...while running strictly more simulations per lookup (the extra mg2
  // work that makes it no faster in practice).
  EXPECT_GE(celfpp_trace.Total(TraceCounter::kSimulations),
            celf_trace.Total(TraceCounter::kSimulations) / 2);
}

TEST(CelfFamilyTest, SimilarSpreadAcrossVariants) {
  Graph g = testutil::HubGraph(0.5, 0.3);
  Greedy greedy(GreedyOptions{1000});
  Celf celf(CelfOptions{1000});
  CelfPlusPlus celfpp(CelfPlusPlusOptions{1000});
  const double sg =
      greedy.Select(InputFor(g, 2, nullptr)).internal_spread_estimate;
  const double sc =
      celf.Select(InputFor(g, 2, nullptr)).internal_spread_estimate;
  const double sp =
      celfpp.Select(InputFor(g, 2, nullptr)).internal_spread_estimate;
  EXPECT_NEAR(sg, sc, 0.35);
  EXPECT_NEAR(sg, sp, 0.35);
}

TEST(CelfFamilyTest, WorksUnderLinearThreshold) {
  Graph g = testutil::TwoStars(1.0);
  Celf celf(CelfOptions{100});
  CelfPlusPlus celfpp(CelfPlusPlusOptions{100});
  const auto a =
      celf.Select(InputFor(g, 2, nullptr, DiffusionKind::kLinearThreshold));
  const auto b =
      celfpp.Select(InputFor(g, 2, nullptr, DiffusionKind::kLinearThreshold));
  EXPECT_EQ(a.seeds[0], 0u);
  EXPECT_EQ(b.seeds[0], 0u);
}

}  // namespace
}  // namespace imbench
