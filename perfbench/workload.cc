// The benchmark's workloads: one graph, one-shot IMM and the query
// service on it, timed calls interleaved. Set-up is the graph build (CPU
// time), taken once before timing and again after every timed Select and
// EstimateSpread call on a graph that is then dropped, so its samples span
// the run like those of the other metrics.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "framework/memory.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace imbench;

constexpr WorkloadSpec kSpecs[] = {
    {"wc", WeightModel::kWc, DiffusionKind::kIndependentCascade, 0.1,
     kReferenceSimulations, true, 1.5, 1.25, 0.4, 0.35, 0.3},
    {"lt", WeightModel::kLtUniform, DiffusionKind::kLinearThreshold, 0.05,
     256, false, 1.4, 2.7, 0.3, 0.3, 0.4},
};

int Repetitions(double budget_seconds, double nominal_seconds, int at_least) {
  return std::max(at_least, static_cast<int>(std::lround(budget_seconds /
                                                         nominal_seconds)));
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

int RunWorkload(const WorkloadSpec& spec, const BenchArgs& args,
                Report& report) {
  ThreadPool pool(kThreads - 1);
  Rng rng(args.seed);
  const uint64_t imm_seed = rng.NextU64();
  const uint64_t serve_seed = rng.NextU64();
  Trace setup_trace;
  Trace* st = args.trace ? &setup_trace : nullptr;

  std::vector<double> setup_s, generate_s, weights_s;
  auto build = [&] {
    double gen = 0, weights = 0;
    const OpTimer timer;
    Graph built = BuildGraph(spec.model, st, &gen, &weights);
    setup_s.push_back(timer.Stop().cpu_s);
    generate_s.push_back(gen);
    weights_s.push_back(weights);
    return built;
  };
  const Graph graph = build();

  // A traced call runs beside an untraced twin, so a traced run does half
  // the repetitions in about the same time.
  const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
  const int select_reps = Repetitions(budget * spec.select_share,
                                      spec.select_seconds, 3);
  const int evaluate_reps = Repetitions(budget * spec.evaluate_share,
                                        spec.evaluate_seconds, 3);
  const int cycles = 1 + Repetitions(
      budget * (1 - spec.select_share - spec.evaluate_share),
      spec.cycle_seconds, ServePart::kMinCycles - 1);

  ImmPart imm(spec, graph, imm_seed, &pool, args.trace, report);
  ServePart serve(spec, graph, serve_seed, &pool, args.trace, cycles, report);

  // Warm-ups, then the timed calls of all three kinds interleaved in
  // proportion (always the kind furthest behind its share), so a slow
  // stretch of the machine lands on every metric's samples rather than on
  // one block of them. The peak heap covers the timed calls.
  imm.Select(0);
  imm.Evaluate(0);
  serve.Cycle(0);
  ResetPeakHeapBytes();
  const int total[3] = {select_reps, evaluate_reps, cycles - 1};
  int done[3] = {0, 0, 0};
  while (done[0] < total[0] || done[1] < total[1] || done[2] < total[2]) {
    int next = -1;
    for (int i = 0; i < 3; ++i) {
      if (done[i] == total[i]) continue;
      if (next < 0 || (done[i] + 0.5) * total[next] <
                          (done[next] + 0.5) * total[i]) {
        next = i;
      }
    }
    const int rep = ++done[next];
    if (next == 2) {
      serve.Cycle(rep);
      continue;
    }
    if (next == 0) {
      imm.Select(rep);
    } else {
      imm.Evaluate(rep);
    }
    build();
  }
  const double peak_heap_mb = static_cast<double>(PeakHeapBytes()) / kMiB;

  if (spec.check_mmap && !imm.CheckMmapSeeds(args.work_dir)) return 1;
  serve.CheckAgainstColdRebuild();

  if (!args.trace) {
    report.Metric("setup_s", Median(setup_s), "s", setup_s.size());
    imm.EndToEndMetrics();
    serve.EndToEndMetrics();
    report.Metric("peak_heap_mb", peak_heap_mb, "MB");
    return 0;
  }

  AppendLayerRows(setup_trace, &report.rows());
  report.Metric("graph.generate_s", Median(generate_s), "s",
                generate_s.size());
  report.Metric("graph.weights_s", Median(weights_s), "s", weights_s.size());
  imm.LayerMetrics();
  serve.LayerMetrics();
  const TraceCost& a = imm.trace_cost();
  const TraceCost& b = serve.trace_cost();
  report.Metric("trace.overhead_ratio",
                (a.traced_cpu_s + b.traced_cpu_s) /
                    (a.untraced_cpu_s + b.untraced_cpu_s),
                "ratio");
  return 0;
}

}  // namespace perfbench
