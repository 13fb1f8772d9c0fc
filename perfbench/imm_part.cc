// One-shot IMM part of a workload: Select on the heap CSR and
// EstimateSpread of the selected seeds. Gated times are process CPU time
// (see ProcessCpuSeconds); wall times go to the traced run.
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "graph/compact_graph.h"
#include "graph/graph_file.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace imbench;

constexpr uint32_t kSeedCount = 50;

const TraceSpan* FindSpan(const Trace& trace, const char* name) {
  for (const TraceSpan& span : trace.spans()) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

double SpanSeconds(const Trace& trace, const char* name) {
  const TraceSpan* span = FindSpan(trace, name);
  return span != nullptr ? span->duration_seconds : 0;
}

double SpanHeapMb(const Trace& trace, const char* name) {
  const TraceSpan* span = FindSpan(trace, name);
  return span != nullptr ? static_cast<double>(span->heap_delta_bytes) / kMiB
                         : 0;
}

// Removes the workload's .imgrf file on every exit path.
struct FileRemover {
  std::string path;
  ~FileRemover() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

ImmOptions MakeImmOptions(double epsilon) {
  ImmOptions options;
  options.epsilon = epsilon;
  return options;
}

}  // namespace

ImmPart::ImmPart(const WorkloadSpec& spec, const Graph& graph, uint64_t seed,
                 ThreadPool* pool, bool traced, Report& report)
    : spec_(spec),
      graph_(graph),
      pool_(pool),
      traced_(traced),
      report_(report),
      imm_(MakeImmOptions(spec.imm_epsilon)) {
  Rng rng(seed);
  select_seed_ = rng.NextU64();
  input_.graph = &graph;
  input_.diffusion = spec.kind;
  input_.k = kSeedCount;
  input_.seed = select_seed_;
  input_.threads = kThreads;
  input_.pool = pool;
  spread_.simulations = spec.eval_sims;
  spread_.seed = rng.NextU64();
  spread_.threads = kThreads;
  spread_.pool = pool;
  spread_.engine = McEngine::kFused64;
}

template <typename Call>
void ImmPart::Step(int rep, Call call) {
  if (!traced_) {
    call(rep, nullptr);
    return;
  }
  Trace trace;
  if (rep % 2 == 0) call(rep, nullptr);
  call(rep, &trace);
  if (rep % 2 == 1) call(rep, nullptr);
  if (rep > 0) AppendLayerRows(trace, &report_.rows());
}

void ImmPart::Select(int rep) {
  Step(rep, [this](int r, Trace* t) { SelectOnce(r, t); });
}

void ImmPart::Evaluate(int rep) {
  Step(rep, [this](int r, Trace* t) { EvaluateOnce(r, t); });
}

void ImmPart::SelectOnce(int rep, Trace* trace) {
  input_.trace = trace;
  const OpTimer timer;
  SelectionResult result;
  {
    Span span(trace, "algorithms:Select");
    result = imm_.Select(input_);
  }
  const Elapsed elapsed = timer.Stop();
  input_.trace = nullptr;
  if (rep == 0 && trace == nullptr) ref_seeds_ = result.seeds;
  report_.Op(report_.Check("imm.select_complete", result.complete()) &&
             report_.Check("imm.seeds_repeat", result.seeds == ref_seeds_));
  if (rep == 0) return;
  if (trace == nullptr) {
    select_wall_s_.push_back(elapsed.wall_s);
    select_cpu_s_.push_back(elapsed.cpu_s);
    cost_.untraced_cpu_s += elapsed.cpu_s;
    return;
  }
  cost_.traced_cpu_s += elapsed.cpu_s;
  sample_s_.push_back(SpanSeconds(*trace, "sample"));
  bound_s_.push_back(SpanSeconds(*trace, "bound"));
  final_s_.push_back(SpanSeconds(*trace, "final"));
  cover_s_.push_back(SpanSeconds(*trace, "select"));
  heap_mb_.push_back(SpanHeapMb(*trace, "sample") +
                     SpanHeapMb(*trace, "select"));
  rr_sets_.push_back(
      static_cast<double>(trace->Total(TraceCounter::kRrSets)));
  edges_examined_.push_back(
      static_cast<double>(trace->Total(TraceCounter::kRrEdgesExamined)));
}

void ImmPart::EvaluateOnce(int rep, Trace* trace) {
  spread_.trace = trace;
  const OpTimer timer;
  SpreadEstimate estimate;
  {
    Span span(trace, "diffusion.mc:EstimateSpread");
    estimate = EstimateSpread(input_.View(), spec_.kind, ref_seeds_, spread_);
  }
  const Elapsed elapsed = timer.Stop();
  spread_.trace = nullptr;
  if (rep == 0 && trace == nullptr) ref_spread_ = estimate.mean;
  report_.Op(report_.Check("imm.spread_repeat",
                           estimate.mean == ref_spread_ &&
                               estimate.simulations == spec_.eval_sims));
  if (rep == 0) return;
  if (trace == nullptr) {
    evaluate_wall_s_.push_back(elapsed.wall_s);
    evaluate_cpu_s_.push_back(elapsed.cpu_s);
    cost_.untraced_cpu_s += elapsed.cpu_s;
    return;
  }
  cost_.traced_cpu_s += elapsed.cpu_s;
  sims_per_s_.push_back(spec_.eval_sims / elapsed.wall_s);
  fused_blocks_.push_back(
      static_cast<double>(trace->Total(TraceCounter::kFusedBlocks)));
  mc_cpu_util_.push_back(CpuUtil(elapsed));
}

bool ImmPart::CheckMmapSeeds(const std::string& work_dir) {
  FileRemover file;
  file.path = work_dir + "/" + spec_.name + "-" +
              std::to_string(::getpid()) + ".imgrf";
  std::string error;
  if (!WriteGraphFile(graph_, spec_.model, file.path, &error)) {
    std::fprintf(stderr, "cannot write %s: %s\n", file.path.c_str(),
                 error.c_str());
    return false;
  }
  CompactGraph compact;
  const bool opened = report_.Check(
      "graph.open_ok",
      CompactGraph::Open(file.path, &compact, &error) == GraphFileStatus::kOk);
  if (!opened) std::fprintf(stderr, "open refused: %s\n", error.c_str());
  SelectionInput input = input_;
  input.graph = nullptr;
  input.compact = &compact;
  const SelectionResult result =
      opened ? imm_.Select(input) : SelectionResult{};
  report_.Op(report_.Check("imm.mmap_seeds_match_heap",
                           opened && result.complete() &&
                               result.seeds == ref_seeds_));
  return true;
}

void ImmPart::EndToEndMetrics() {
  report_.Metric("select_cpu_s", Median(select_cpu_s_), "s",
                 select_cpu_s_.size());
  report_.Metric("evaluate_cpu_s", Median(evaluate_cpu_s_), "s",
                 evaluate_cpu_s_.size());
  report_.Metric("spread", ref_spread_, "nodes");
}

void ImmPart::LayerMetrics() {
  const size_t n = sample_s_.size();
  const size_t n_mc = sims_per_s_.size();
  report_.Metric("diffusion.rr.sample_s", Median(sample_s_), "s", n);
  report_.Metric("diffusion.rr.bound_s", Median(bound_s_), "s", n);
  report_.Metric("diffusion.rr.final_s", Median(final_s_), "s", n);
  report_.Metric("diffusion.rr.sets", Median(rr_sets_), "count", n);
  report_.Metric("diffusion.rr.edges_examined", Median(edges_examined_),
                 "count", n);
  report_.Metric("algorithms.imm.cover_s", Median(cover_s_), "s", n);
  report_.Metric("algorithms.imm.select_wall_s", Median(select_wall_s_), "s",
                 select_wall_s_.size());
  report_.Metric("algorithms.imm.heap_mb", Median(heap_mb_), "MB", n);
  report_.Metric("diffusion.mc.sims_per_s", Median(sims_per_s_), "1/s", n_mc);
  report_.Metric("diffusion.mc.evaluate_wall_s", Median(evaluate_wall_s_),
                 "s", evaluate_wall_s_.size());
  report_.Metric("diffusion.mc.fused_blocks", Median(fused_blocks_), "count",
                 n_mc);
  report_.Metric("diffusion.mc.cpu_util", Median(mc_cpu_util_), "ratio",
                 n_mc);
  // The same θ sets IMM drew, generated by the engine IMM uses.
  ReportRrSamplingAlone(input_.View(), spec_.kind, pool_, select_seed_,
                        static_cast<uint64_t>(Median(rr_sets_)), 2, report_);
}

}  // namespace perfbench
