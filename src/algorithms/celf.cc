#include "algorithms/celf.h"

#include "algorithms/lazy_queue.h"
#include "common/check.h"
#include "diffusion/spread.h"
#include "framework/trace.h"

namespace imbench {

SelectionResult Celf::Select(const SelectionInput& input) {
  const Graph& graph = *input.graph;
  IMBENCH_CHECK(input.k <= graph.num_nodes());
  // Streaming mode: one live Rng across all lazy re-evaluations.
  StreamingScratch scratch(graph.num_nodes(), input.seed);
  SpreadOptions mc;
  mc.simulations = options_.simulations;
  mc.guard = input.guard;
  mc.streaming = &scratch;
  mc.trace = input.trace;

  SelectionResult result;
  std::vector<NodeId> seeds;
  std::vector<NodeId> candidate;
  double current_spread = 0;

  auto marginal_gain = [&](NodeId v) {
    candidate = seeds;
    candidate.push_back(v);
    const SpreadEstimate estimate =
        EstimateSpread(graph, input.diffusion, candidate, mc);
    return estimate.mean - current_spread;
  };
  auto commit = [&](NodeId v) {
    candidate = seeds;
    candidate.push_back(v);
    // Re-estimate σ(S) once per selection so gains stay anchored; cheaper
    // than storing each candidate's absolute spread.
    current_spread =
        EstimateSpread(graph, input.diffusion, candidate, mc).mean;
    seeds.push_back(v);
  };
  {
    Span select_span(input.trace, "select");
    result.seeds = CelfSelect(graph.num_nodes(), input.k, marginal_gain,
                              commit, input.guard, input.trace);
  }
  result.stop_reason = GuardReason(input.guard);
  result.internal_spread_estimate = current_spread;
  return result;
}

}  // namespace imbench
