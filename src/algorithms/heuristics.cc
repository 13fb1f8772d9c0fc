#include "algorithms/heuristics.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "framework/trace.h"

namespace imbench {

std::vector<NodeId> RankByScore(const std::vector<double>& score) {
  std::vector<NodeId> order(score.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return a < b;
  });
  return order;
}

SelectionResult DegreeHeuristic::Select(const SelectionInput& input) {
  const GraphView graph = input.View();
  IMBENCH_CHECK(input.k <= graph.num_nodes());
  Span select_span(input.trace, "select");
  std::vector<double> score(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    score[v] = graph.OutDegree(v);
  }
  const std::vector<NodeId> order = RankByScore(score);
  SelectionResult result;
  result.seeds.assign(order.begin(), order.begin() + input.k);
  return result;
}

SelectionResult DegreeDiscount::Select(const SelectionInput& input) {
  const GraphView graph = input.View();
  AdjScratch scratch;
  IMBENCH_CHECK(input.k <= graph.num_nodes());
  const NodeId n = graph.num_nodes();
  std::vector<double> discounted(n);
  std::vector<uint32_t> selected_neighbors(n, 0);
  std::vector<uint8_t> is_seed(n, 0);
  for (NodeId v = 0; v < n; ++v) discounted[v] = graph.OutDegree(v);

  SelectionResult result;
  Span select_span(input.trace, "select");
  while (result.seeds.size() < input.k) {
    TraceAdd(input.trace, TraceCounter::kGuardPolls);
    if (GuardShouldStop(input.guard)) break;
    NodeId best = kInvalidNode;
    double best_score = -1;
    for (NodeId v = 0; v < n; ++v) {
      if (!is_seed[v] && discounted[v] > best_score) {
        best_score = discounted[v];
        best = v;
      }
    }
    IMBENCH_CHECK(best != kInvalidNode);
    is_seed[best] = 1;
    result.seeds.push_back(best);
    // Discount the out-neighbors of the new seed.
    for (const NodeId u : graph.OutTargets(best, scratch)) {
      if (is_seed[u]) continue;
      const double d = graph.OutDegree(u);
      const double t = ++selected_neighbors[u];
      discounted[u] = d - 2 * t - (d - t) * t * options_.p;
    }
  }
  TraceAdd(input.trace, TraceCounter::kNeighborBlocksDecoded,
           scratch.blocks_decoded);
  result.stop_reason = GuardReason(input.guard);
  return result;
}

SelectionResult PageRankHeuristic::Select(const SelectionInput& input) {
  const GraphView graph = input.View();
  AdjScratch scratch;
  IMBENCH_CHECK(input.k <= graph.num_nodes());
  const NodeId n = graph.num_nodes();
  std::vector<double> rank(n, 1.0 / n);
  std::vector<double> next(n, 0.0);
  Span score_span(input.trace, "score");
  for (uint32_t iter = 0; iter < options_.iterations; ++iter) {
    // Stopping early just ranks by a less-converged vector; the top-k is
    // still complete.
    TraceAdd(input.trace, TraceCounter::kGuardPolls);
    if (GuardShouldStop(input.guard)) break;
    TraceAdd(input.trace, TraceCounter::kScoringRounds);
    std::fill(next.begin(), next.end(), (1.0 - options_.damping) / n);
    double dangling = 0;
    for (NodeId v = 0; v < n; ++v) {
      // Reverse-graph PageRank: v's rank flows to its *in*-neighbors, so a
      // node pointed at by walks along reversed edges — i.e. a source of
      // influence — accumulates rank.
      const auto sources = graph.InSources(v, scratch);
      if (sources.empty()) {
        dangling += rank[v];
        continue;
      }
      const double share = options_.damping * rank[v] /
                           static_cast<double>(sources.size());
      for (const NodeId u : sources) next[u] += share;
    }
    const double dangling_share = options_.damping * dangling / n;
    for (NodeId v = 0; v < n; ++v) next[v] += dangling_share;
    rank.swap(next);
  }
  TraceAdd(input.trace, TraceCounter::kNeighborBlocksDecoded,
           scratch.blocks_decoded);
  score_span.Close();
  SelectionResult result;
  {
    Span select_span(input.trace, "select");
    const std::vector<NodeId> order = RankByScore(rank);
    result.seeds.assign(order.begin(), order.begin() + input.k);
  }
  result.stop_reason = GuardReason(input.guard);
  return result;
}

}  // namespace imbench
