// The two parts every benchmark workload runs on one graph, and the spec
// that sizes them. ImmPart is one-shot IMM: Select and EstimateSpread of
// the selected seeds. ServePart is one closed-loop client of ImService
// while AddEdges batches change the graph underneath it. workload.cc
// interleaves their timed calls; the first call of each kind is a
// discarded warm-up and every metric is the median of the rest.
#ifndef IMBENCH_PERFBENCH_WORKLOAD_H_
#define IMBENCH_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "algorithms/imm.h"
#include "common/thread_pool.h"
#include "diffusion/spread.h"
#include "framework/trace.h"
#include "graph/graph.h"
#include "graph/weights.h"
#include "perf_util.h"
#include "service/epoch_graph_store.h"
#include "service/im_service.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  imbench::WeightModel model;
  imbench::DiffusionKind kind;
  // IMM accuracy. LT uses 0.05: at 0.1 its Select draws ~97K short LT
  // sets in 0.3 s, and its median moved by up to 22% between runs where
  // the longer IC Selects moved 6-15%.
  double imm_epsilon;
  // Fused MC simulations per EstimateSpread call.
  uint32_t eval_sims;
  // Checks the compact mmap backend against the heap CSR after timing.
  bool check_mmap;
  // Nominal wall seconds of one Select, one EstimateSpread and one service
  // cycle on kThreads lanes (4-core 2.x GHz VM), and the shares of
  // --seconds given to Select and EstimateSpread calls (the service gets
  // the rest). They fix the repetition counts for a given --seconds, so
  // every run with the same arguments does the same work.
  double select_seconds;
  double evaluate_seconds;
  double cycle_seconds;
  double select_share;
  double evaluate_share;
};

// The spec named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

// Runs one workload into `report`. Returns 0 when the report is complete,
// 1 when set-up failed.
int RunWorkload(const WorkloadSpec& spec, const BenchArgs& args,
                Report& report);

// Process CPU time of traced calls and of the untraced calls they are
// paired with; their ratio is trace.overhead_ratio.
struct TraceCost {
  double traced_cpu_s = 0;
  double untraced_cpu_s = 0;
};

class ImmPart {
 public:
  ImmPart(const WorkloadSpec& spec, const imbench::Graph& graph,
          uint64_t seed, imbench::ThreadPool* pool, bool traced,
          Report& report);

  // One repetition each; repetition 0 is the warm-up, not timed. A traced
  // run pairs every traced call with an untraced one, in alternating
  // order, and keeps the spans of the traced call.
  void Select(int rep);
  void Evaluate(int rep);

  // Untimed output check: the graph written once with WriteGraphFile,
  // opened with CompactGraph::Open and served through the compact backend
  // must give the heap CSR's seeds byte for byte. Returns false when the
  // file cannot be written.
  bool CheckMmapSeeds(const std::string& work_dir);

  void EndToEndMetrics();
  void LayerMetrics();
  const TraceCost& trace_cost() const { return cost_; }

 private:
  void SelectOnce(int rep, imbench::Trace* trace);
  void EvaluateOnce(int rep, imbench::Trace* trace);
  template <typename Call>
  void Step(int rep, Call call);

  const WorkloadSpec& spec_;
  const imbench::Graph& graph_;
  imbench::ThreadPool* pool_;
  bool traced_;
  Report& report_;
  uint64_t select_seed_;
  imbench::SelectionInput input_;
  imbench::Imm imm_;
  imbench::SpreadOptions spread_;

  std::vector<imbench::NodeId> ref_seeds_;
  double ref_spread_ = 0;
  // Untraced calls.
  std::vector<double> select_wall_s_, select_cpu_s_, evaluate_wall_s_,
      evaluate_cpu_s_;
  // Traced calls.
  std::vector<double> sample_s_, bound_s_, final_s_, cover_s_, heap_mb_,
      rr_sets_, edges_examined_, sims_per_s_, fused_blocks_, mc_cpu_util_;
  TraceCost cost_;
};

class ServePart {
 public:
  // Puts a copy of `graph` into a store, starts the service and answers
  // the cold first query (the largest θ of the query mix, so later queries
  // never top up). `cycles` counts the warm-up cycle 0.
  ServePart(const WorkloadSpec& spec, const imbench::Graph& graph,
            uint64_t seed, imbench::ThreadPool* pool, bool traced,
            int cycles, Report& report);
  ~ServePart();

  // Cycle c: one AddEdges batch, the repair query that follows it and
  // kWarmPerCycle warm queries. Cycle 0 is the warm-up, not timed.
  void Cycle(int c);

  // Output check: the last answer equals that of a cold service rebuilt
  // on the final snapshot.
  void CheckAgainstColdRebuild();

  void EndToEndMetrics();
  void LayerMetrics();
  const TraceCost& trace_cost() const { return cost_; }

  static constexpr int kWarmPerCycle = 5;
  static constexpr int kArcsPerMutation = 8;
  // At least 21 cycles keep 20 timed repair queries (ten beyond their
  // median) and 100 warm queries (ten beyond p90).
  static constexpr int kMinCycles = 21;

  struct Batch {
    std::vector<std::pair<imbench::NodeId, imbench::NodeId>> arcs;
    uint32_t ks[1 + kWarmPerCycle];  // ks[0]: the repair query
  };

 private:
  imbench::ImQueryResult Serve(imbench::ImService& svc, uint32_t k,
                               bool repair, Elapsed* time);
  void TimeCorpusCalls(uint32_t k, bool timed);

  bool traced_;
  Report& report_;
  imbench::ServiceOptions options_;
  imbench::Trace trace_;
  std::unique_ptr<imbench::EpochGraphStore> store_;
  std::unique_ptr<imbench::ImService> service_, traced_service_;
  std::vector<Batch> batches_;
  imbench::NodeId n_ = 0;

  imbench::ImQueryResult last_;
  uint32_t last_k_ = 0;
  std::map<uint32_t, std::vector<imbench::NodeId>> epoch_seeds_;
  // Untraced service: wall and CPU milliseconds.
  std::vector<double> warm_ms_, repair_ms_, mutation_ms_;
  std::vector<double> warm_cpu_ms_, repair_cpu_ms_, mutation_cpu_ms_;
  double replay_cpu_s_ = 0;
  int replay_cycles_ = 0;
  // Traced service.
  std::vector<double> cover_ms_, invalidate_ms_, sets_repaired_,
      repaired_fraction_, sets_reused_;
  TraceCost cost_;
};

}  // namespace perfbench

#endif  // IMBENCH_PERFBENCH_WORKLOAD_H_
