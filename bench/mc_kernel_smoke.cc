// Perf smoke for the bit-parallel fused MC kernels: estimates the spread
// of the top-degree seed set with the scalar and the fused engine, one row
// per diffusion model, and writes the timings and speedups as JSON. CI
// runs it and archives the JSON (BENCH_mc_kernels.json) so the kernel perf
// trajectory is tracked commit over commit, with a hard floor on each
// row's fused speedup. The rows:
//   * ic: a BA graph (--nodes, --attach) under WC weights;
//   * lt: the catalog `livejournal` profile at bench scale under
//     LT-uniform weights, a skewed graph (largest in-degree 2,270 against
//     a mean of 14).
//
//   ./mc_kernel_smoke --nodes=100000 --sims=1024 --k=10 --out=BENCH.json
//
// Correctness gates before any row's timing is reported:
//   * a spot check of fused lanes against FusedScalarReplay (the full
//     differential suite lives in tests/fused_cascade_test.cc);
//   * the fused estimate is bit-identical across thread counts (1 vs 4);
//   * the two engines agree statistically.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "diffusion/fused_cascade.h"
#include "diffusion/spread.h"
#include "framework/datasets.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/weights.h"

using namespace imbench;

namespace {

// Highest out-degree nodes: a realistic seed set whose cascades actually
// touch a large fraction of the graph, so the timing exercises the
// frontier loops instead of dying out instantly.
std::vector<NodeId> TopDegreeSeeds(const Graph& graph, uint32_t k) {
  std::vector<NodeId> nodes(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) nodes[v] = v;
  std::partial_sort(nodes.begin(), nodes.begin() + k, nodes.end(),
                    [&](NodeId a, NodeId b) {
                      if (graph.OutDegree(a) != graph.OutDegree(b)) {
                        return graph.OutDegree(a) > graph.OutDegree(b);
                      }
                      return a < b;
                    });
  nodes.resize(k);
  return nodes;
}

double MeasureSeconds(const Graph& graph, DiffusionKind kind,
                      std::span<const NodeId> seeds,
                      const SpreadOptions& options, int64_t reps,
                      SpreadEstimate* est) {
  Timer timer;
  *est = EstimateSpread(graph, kind, seeds, options);
  double best = timer.Seconds();
  for (int64_t rep = 1; rep < reps; ++rep) {
    timer.Restart();
    const SpreadEstimate again = EstimateSpread(graph, kind, seeds, options);
    best = std::min(best, timer.Seconds());
    if (again.mean != est->mean) {
      std::fprintf(stderr, "FATAL: estimate not reproducible across reps\n");
      std::exit(1);
    }
  }
  return best;
}

struct Row {
  std::string graph_json;  // the row's "graph" object
  SpreadEstimate scalar;
  SpreadEstimate fused;
  double scalar_seconds = 0;
  double fused_seconds = 0;
  double speedup() const { return scalar_seconds / fused_seconds; }
};

std::string GraphJson(const char* generator, const Graph& graph,
                      const char* weights) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"generator\": \"%s\", \"nodes\": %u, \"edges\": %llu, "
                "\"weights\": \"%s\"}",
                generator, graph.num_nodes(),
                static_cast<unsigned long long>(graph.num_edges()), weights);
  return buf;
}

// Runs the gates, then times both engines on one graph from its
// top-`seed_count` out-degree seeds; exits the process with status 1 when
// a gate fails.
Row RunRow(const char* name, const char* generator, const char* weights,
           const Graph& graph, DiffusionKind kind, uint32_t seed_count,
           uint32_t simulations, uint64_t mc_seed, int64_t reps) {
  std::printf("%s graph: %u nodes, %llu edges (%s, %s weights)\n", name,
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()), generator,
              weights);
  const std::vector<NodeId> seeds = TopDegreeSeeds(graph, seed_count);
  Row row;
  row.graph_json = GraphJson(generator, graph, weights);

  // --- Gate 1: fused lanes replay bit-for-bit (spot check, block 0). ---
  {
    FusedCascadeContext context(graph);
    NodeId gamma[kFusedLanes];
    context.RunBlock(kind, seeds, mc_seed, 0, kFusedLanes, gamma);
    for (const uint32_t lane : {0u, 17u, 63u}) {
      const NodeId replay =
          FusedScalarReplay(graph, kind, seeds, mc_seed, lane);
      if (gamma[lane] != replay) {
        std::fprintf(stderr,
                     "FATAL: %s: fused lane %u diverged from scalar replay "
                     "(%u vs %u)\n",
                     name, lane, gamma[lane], replay);
        std::exit(1);
      }
    }
  }

  SpreadOptions scalar_options;
  scalar_options.simulations = simulations;
  scalar_options.seed = mc_seed;
  scalar_options.engine = McEngine::kScalar;

  SpreadOptions fused_options = scalar_options;
  fused_options.engine = McEngine::kFused64;

  // --- Gate 2: fused estimate is thread-count invariant. ---
  row.fused_seconds =
      MeasureSeconds(graph, kind, seeds, fused_options, reps, &row.fused);
  {
    ThreadPool pool(3);
    SpreadOptions threaded = fused_options;
    threaded.threads = 4;
    threaded.pool = &pool;
    const SpreadEstimate fused_par =
        EstimateSpread(graph, kind, seeds, threaded);
    if (fused_par.mean != row.fused.mean ||
        fused_par.stddev != row.fused.stddev) {
      std::fprintf(stderr,
                   "FATAL: %s: fused estimate not thread-invariant "
                   "(%.17g vs %.17g)\n",
                   name, fused_par.mean, row.fused.mean);
      std::exit(1);
    }
  }

  row.scalar_seconds =
      MeasureSeconds(graph, kind, seeds, scalar_options, reps, &row.scalar);

  // --- Gate 3: both engines are unbiased estimators of the same σ(S);
  // they draw different streams, so agree statistically, not bitwise. ---
  const double gap = std::abs(row.scalar.mean - row.fused.mean);
  const double tolerance =
      6.0 * (row.scalar.StdError() + row.fused.StdError()) + 1e-6;
  if (gap > tolerance) {
    std::fprintf(stderr,
                 "FATAL: %s: engines disagree: scalar %.3f vs fused %.3f "
                 "(gap %.3f, tolerance %.3f)\n",
                 name, row.scalar.mean, row.fused.mean, gap, tolerance);
    std::exit(1);
  }

  std::printf("%s spread: scalar %.1f +/- %.2f, fused %.1f +/- %.2f "
              "(%u sims)\n",
              name, row.scalar.mean, row.scalar.StdError(), row.fused.mean,
              row.fused.StdError(), simulations);
  std::printf("%s time: scalar %.3fs vs fused %.3fs (%.2fx)\n", name,
              row.scalar_seconds, row.fused_seconds, row.speedup());
  return row;
}

void WriteRow(std::FILE* f, const char* name, const Row& row,
              const char* trailer) {
  std::fprintf(f,
               "  \"%s\": {\n"
               "    \"graph\": %s,\n"
               "    \"scalar\": {\"seconds\": %.6f, \"mean\": %.6f, "
               "\"std_error\": %.6f},\n"
               "    \"fused\": {\"seconds\": %.6f, \"mean\": %.6f, "
               "\"std_error\": %.6f},\n"
               "    \"speedup\": %.3f\n"
               "  }%s\n",
               name, row.graph_json.c_str(), row.scalar_seconds,
               row.scalar.mean, row.scalar.StdError(), row.fused_seconds,
               row.fused.mean, row.fused.StdError(), row.speedup(), trailer);
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("scalar vs fused MC spread kernel perf smoke");
  int64_t* nodes = flags.AddInt("nodes", 100000, "BA graph nodes (IC row)");
  // Default of 3 attachments gives a ~300K-edge graph with average degree
  // near the paper's sparse benchmark networks (NetHEPT is ~4); denser
  // graphs shift both engines toward the same memory-bound frontier
  // bookkeeping and compress the measurable kernel gap.
  int64_t* attach =
      flags.AddInt("attach", 3, "BA attachments per node (IC row)");
  int64_t* sims = flags.AddInt("sims", 1024, "MC simulations per estimate");
  int64_t* k = flags.AddInt("k", 10, "seed-set size (top out-degree nodes)");
  int64_t* seed = flags.AddInt("seed", 7, "RNG seed");
  int64_t* reps = flags.AddInt("reps", 3, "repetitions (min time is kept)");
  std::string* out =
      flags.AddString("out", "BENCH_mc_kernels.json", "JSON output path");
  flags.Parse(argc, argv);

  const uint32_t simulations = static_cast<uint32_t>(*sims);
  const uint64_t mc_seed = static_cast<uint64_t>(*seed) + 1;
  const uint32_t seed_count = static_cast<uint32_t>(*k);

  Rng graph_rng(static_cast<uint64_t>(*seed));
  EdgeList list = BarabasiAlbert(static_cast<NodeId>(*nodes),
                                 static_cast<uint32_t>(*attach), graph_rng);
  // BarabasiAlbert emits arcs new -> old, which under WC weights kills
  // every forward cascade (each arc targets a hub whose in-degree makes
  // its weight negligible). Flip the arcs so hubs broadcast to their
  // attachers — the influence direction of a real follower graph — which
  // gives every node in-degree ~attach, i.e. WC weights ~1/attach, and
  // supercritical cascades from the top-degree seeds. Without this the
  // "benchmark" would time per-estimate setup, not kernel throughput.
  for (Arc& arc : list.arcs) std::swap(arc.source, arc.target);
  Graph ba = Graph::FromArcs(list.num_nodes, std::move(list.arcs));
  AssignWeightedCascade(ba);
  const Row ic = RunRow("ic", "ba", "WC", ba,
                        DiffusionKind::kIndependentCascade, seed_count,
                        simulations, mc_seed, *reps);

  Graph lj = MakeDataset("livejournal", DatasetScale::kBench);
  AssignLtUniform(lj);
  const Row lt = RunRow("lt", "livejournal-bench", "LT-uniform", lj,
                        DiffusionKind::kLinearThreshold, seed_count,
                        simulations, mc_seed, *reps);

  std::FILE* f = std::fopen(out->c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out->c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"simulations\": %u,\n  \"k\": %u,\n", simulations,
               seed_count);
  WriteRow(f, "ic", ic, ",");
  WriteRow(f, "lt", lt, "");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out->c_str());
  return 0;
}
