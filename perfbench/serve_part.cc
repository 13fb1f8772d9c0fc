// Service part of a workload: one closed-loop client driving ImService
// while the graph changes underneath it. Each cycle applies one small
// AddEdges batch, issues the repair query that follows it and
// kWarmPerCycle warm queries. All endpoints and query sizes come from the
// run seed. Gated times are process CPU time (see ProcessCpuSeconds); wall
// times go to the traced run.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "diffusion/rr_sets.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace imbench;

constexpr double kServeEpsilon = 2.0;
constexpr uint32_t kQueryKs[] = {10, 25, 50};
// θ shrinks as k grows, so the k = 10 cold query sizes the corpus for
// every later query.
constexpr uint32_t kColdK = 10;
constexpr int kArcs = ServePart::kArcsPerMutation;
constexpr int kWarm = ServePart::kWarmPerCycle;

// Repair cost follows how many RR sets hold the touched targets, which is
// heavy-tailed in the target's out-degree: under IC the top hub sits in
// ~9% of the corpus, the 1,750th node in ~0.1%, and a repair costs about
// 70 ms plus 0.08 ms per regenerated set. So that every run does the same
// repair work and every cycle a like share of it, the out-degree ranking
// is cut into kArcs equal bands, each cycle draws target i from band i,
// and within band i the timed cycles split the band into equal strata,
// one each, dealt to cycles by the seed (a Latin square: every run draws
// from every stratum once, and no cycle draws two hubs). Likewise every k
// of the mix is the repair query's k equally often over the run, and each
// cycle asks every k equally often. Cycle 0, the warm-up, draws from whole
// bands. Sources are uniform.
std::vector<ServePart::Batch> MakeBatches(uint64_t seed, const Graph& graph,
                                          int count) {
  const NodeId n = graph.num_nodes();
  std::vector<NodeId> by_degree(n);
  for (NodeId v = 0; v < n; ++v) by_degree[v] = v;
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](NodeId a, NodeId b) {
                     return graph.OutDegree(a) > graph.OutDegree(b);
                   });
  static_assert((1 + kWarm) % std::size(kQueryKs) == 0);
  constexpr uint32_t kNumKs = std::size(kQueryKs);
  Rng rng(seed);
  auto shuffle = [&](auto& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.NextU32(static_cast<uint32_t>(i))]);
    }
  };
  const uint64_t timed = count - 1;
  // stratum[i][t]: the stratum of band i that timed cycle t draws from.
  std::vector<std::vector<uint32_t>> stratum(kArcs,
                                             std::vector<uint32_t>(timed));
  for (std::vector<uint32_t>& band : stratum) {
    for (uint32_t t = 0; t < timed; ++t) band[t] = t;
    shuffle(band);
  }
  std::vector<uint32_t> repair_k(timed);
  for (uint32_t t = 0; t < timed; ++t) repair_k[t] = t % kNumKs;
  shuffle(repair_k);

  std::vector<ServePart::Batch> batches(count);
  for (int c = 0; c < count; ++c) {
    ServePart::Batch& batch = batches[c];
    for (int i = 0; i < kArcs; ++i) {
      NodeId lo = static_cast<NodeId>(uint64_t{n} * i / kArcs);
      NodeId hi = static_cast<NodeId>(uint64_t{n} * (i + 1) / kArcs);
      if (c > 0) {
        const uint64_t width = hi - lo;
        const uint64_t j = stratum[i][c - 1];
        hi = lo + static_cast<NodeId>(std::max((j + 1) * width / timed,
                                               j * width / timed + 1));
        lo += static_cast<NodeId>(j * width / timed);
      }
      const NodeId target = by_degree[lo + rng.NextU32(hi - lo)];
      NodeId source = rng.NextU32(n);
      while (source == target) source = rng.NextU32(n);
      batch.arcs.emplace_back(source, target);
    }
    // Each k twice; the repair query's k first, the warm ones shuffled.
    const uint32_t first = c == 0 ? rng.NextU32(kNumKs) : repair_k[c - 1];
    std::vector<uint32_t> ks;
    for (int j = 0; j <= kWarm; ++j) ks.push_back(j % kNumKs);
    ks.erase(std::find(ks.begin(), ks.end(), first));
    shuffle(ks);
    batch.ks[0] = kQueryKs[first];
    for (int j = 0; j < kWarm; ++j) batch.ks[1 + j] = kQueryKs[ks[j]];
  }
  return batches;
}

// The batch as weighted arcs that keep the weight model: WC and LT-uniform
// both weigh every in-arc of v by 1 / indeg(v), so each target's existing
// in-arcs are re-weighted along with its new ones (AddEdges treats an
// existing arc as a weight update). The touched nodes are the targets
// either way.
std::vector<WeightedArc> WeighArcs(const ServePart::Batch& batch,
                                   const Graph& graph) {
  std::map<NodeId, std::vector<NodeId>> sources;
  for (const auto& [source, target] : batch.arcs) {
    std::vector<NodeId>& s = sources[target];
    if (s.empty()) {
      s.assign(graph.InSources(target).begin(), graph.InSources(target).end());
    }
    s.push_back(source);
  }
  std::vector<WeightedArc> arcs;
  for (auto& [target, s] : sources) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    const double weight = 1.0 / static_cast<double>(s.size());
    for (NodeId source : s) arcs.push_back({source, target, weight});
  }
  return arcs;
}

ImQuery MakeQuery(uint32_t k) {
  ImQuery query;
  query.k = k;
  return query;
}

}  // namespace

ServePart::ServePart(const WorkloadSpec& spec, const Graph& graph,
                     uint64_t seed, ThreadPool* pool, bool traced, int cycles,
                     Report& report)
    : traced_(traced), report_(report) {
  Rng rng(seed);
  options_.kind = spec.kind;
  options_.epsilon = kServeEpsilon;
  options_.seed = rng.NextU64();
  options_.threads = kThreads;
  options_.pool = pool;
  const uint64_t ops_seed = rng.NextU64();

  store_ = std::make_unique<EpochGraphStore>(graph.Clone());
  service_ = std::make_unique<ImService>(*store_, options_);
  n_ = graph.num_nodes();
  auto cold_ok = [&](const ImQueryResult& cold) {
    return report_.Check("serve.cold_complete",
                         cold.complete() &&
                             cold.degraded == DegradeMode::kNone &&
                             cold.sets_sampled > 0);
  };
  last_ = service_->Query(MakeQuery(kColdK));
  last_k_ = kColdK;
  report_.Op(cold_ok(last_));
  if (traced_) {
    ServiceOptions traced_options = options_;
    traced_options.trace = &trace_;
    traced_service_ = std::make_unique<ImService>(*store_, traced_options);
    Span span(&trace_, "service:Query");
    report_.Op(cold_ok(traced_service_->Query(MakeQuery(kColdK))));
  }
  batches_ = MakeBatches(ops_seed, graph, cycles);
}

// The services reference the store, so they go first.
ServePart::~ServePart() {
  traced_service_.reset();
  service_.reset();
}

// Serves one query and checks it: complete, not degraded, never sampling,
// a warm query never repairing, and — on the untraced service, for a k
// already answered in this epoch — the same seeds as before.
ImQueryResult ServePart::Serve(ImService& svc, uint32_t k, bool repair,
                               Elapsed* time) {
  const bool is_traced = &svc == traced_service_.get();
  const OpTimer timer;
  ImQueryResult result;
  {
    Span span(is_traced ? &trace_ : nullptr, "service:Query");
    result = svc.Query(MakeQuery(k));
  }
  *time = timer.Stop();
  bool ok = report_.Check("serve.query_complete",
                          result.complete() &&
                              result.degraded == DegradeMode::kNone);
  ok = report_.Check("serve.no_resampling", result.sets_sampled == 0) && ok;
  if (!repair) {
    ok = report_.Check("serve.warm_is_cover_only",
                       result.sets_repaired == 0) && ok;
  }
  if (!is_traced) {
    auto [it, fresh] = epoch_seeds_.emplace(k, result.seeds);
    ok = report_.Check("serve.seeds_stable_within_epoch",
                       fresh || it->second == result.seeds) && ok;
  }
  report_.Op(ok);
  return result;
}

// The two RrCollection calls a repair and a warm query make, timed on a
// copy so the live corpus is left as it was.
void ServePart::TimeCorpusCalls(uint32_t k, bool timed) {
  const RrCollection& live = traced_service_->corpus();
  RrCollection copy(n_);
  bool copied;
  {
    Span span(&trace_, "service:FromArenas");
    copied = RrCollection::FromArenas(
        n_,
        std::vector<NodeId>(live.MembersArena().begin(),
                            live.MembersArena().end()),
        std::vector<uint64_t>(live.OffsetsArena().begin(),
                              live.OffsetsArena().end()),
        &copy);
    copy.GreedyMaxCoverPrefix(k, 1);  // builds the index
  }
  report_.Op(report_.Check("serve.corpus_copy_ok", copied));
  const std::vector<NodeId> touched =
      store_->TouchedSince(traced_service_->corpus_epoch());
  const uint64_t limit = ImService::RequiredSets(n_, k, kServeEpsilon);
  Timer timer;
  {
    Span span(&trace_, "service:GreedyMaxCoverPrefix");
    copy.GreedyMaxCoverPrefix(k, limit);
  }
  const double cover = timer.Millis();
  timer.Restart();
  {
    Span span(&trace_, "service:SetsContainingAny");
    copy.SetsContainingAny(touched);
  }
  const double invalidate = timer.Millis();
  if (timed) {
    cover_ms_.push_back(cover);
    invalidate_ms_.push_back(invalidate);
  }
}

void ServePart::Cycle(int c) {
  const bool timed = c > 0;
  const Batch& batch = batches_[c];
  const std::vector<WeightedArc> arcs =
      WeighArcs(batch, *store_->Current().graph);
  const OpTimer replay;
  const OpTimer mutate_timer;
  bool mutated;
  {
    Span span(traced_ ? &trace_ : nullptr, "graph:TryAddEdges");
    mutated = store_->TryAddEdges(arcs);
  }
  const Elapsed mutate = mutate_timer.Stop();
  report_.Op(report_.Check("serve.mutation_ok", mutated));
  epoch_seeds_.clear();
  if (traced_) TimeCorpusCalls(batch.ks[0], timed);

  for (int j = 0; j <= kWarmPerCycle; ++j) {
    const uint32_t k = batch.ks[j];
    const bool repair = j == 0;
    Elapsed time, traced_time;
    if (!traced_) {
      last_ = Serve(*service_, k, repair, &time);
    } else {
      // Alternate which service answers first.
      if ((c + j) % 2 == 0) last_ = Serve(*service_, k, repair, &time);
      const ImQueryResult traced_result =
          Serve(*traced_service_, k, repair, &traced_time);
      if ((c + j) % 2 == 1) last_ = Serve(*service_, k, repair, &time);
      report_.Check("serve.traced_seeds_match",
                    traced_result.seeds == last_.seeds);
      if (timed && repair) {
        sets_repaired_.push_back(
            static_cast<double>(traced_result.sets_repaired));
        repaired_fraction_.push_back(
            static_cast<double>(traced_result.sets_repaired) /
            static_cast<double>(
                std::max<uint64_t>(traced_result.sets_used, 1)));
      } else if (timed) {
        sets_reused_.push_back(static_cast<double>(traced_result.sets_reused));
      }
    }
    last_k_ = k;
    if (!timed) continue;
    (repair ? repair_ms_ : warm_ms_).push_back(1e3 * time.wall_s);
    (repair ? repair_cpu_ms_ : warm_cpu_ms_).push_back(1e3 * time.cpu_s);
    if (traced_) {
      cost_.traced_cpu_s += traced_time.cpu_s;
      cost_.untraced_cpu_s += time.cpu_s;
    }
  }
  if (timed) {
    mutation_ms_.push_back(1e3 * mutate.wall_s);
    mutation_cpu_ms_.push_back(1e3 * mutate.cpu_s);
    replay_cpu_s_ += replay.Stop().cpu_s;
    ++replay_cycles_;
  }
}

void ServePart::CheckAgainstColdRebuild() {
  EpochGraphStore ref_store(store_->Current().graph->Clone());
  ImService ref(ref_store, options_);
  const ImQueryResult cold = ref.Query(MakeQuery(last_k_));
  report_.Op(report_.Check("serve.final_matches_cold_rebuild",
                           cold.complete() && cold.seeds == last_.seeds));
}

void ServePart::EndToEndMetrics() {
  report_.Metric("warm_query_cpu_p50_ms", Percentile(warm_cpu_ms_, 0.5), "ms",
                 warm_cpu_ms_.size());
  report_.Metric("warm_query_cpu_p90_ms", Percentile(warm_cpu_ms_, 0.9), "ms",
                 warm_cpu_ms_.size());
  report_.Metric("repair_query_cpu_p50_ms", Percentile(repair_cpu_ms_, 0.5),
                 "ms", repair_cpu_ms_.size());
  report_.Metric("mutation_cpu_p50_ms", Percentile(mutation_cpu_ms_, 0.5),
                 "ms", mutation_cpu_ms_.size());
  // Operations over the whole timed replay, so the rare slow repair of a
  // hub's sets counts in full.
  constexpr int kOpsPerCycle = 1 + 1 + kWarmPerCycle;
  report_.Metric("serve_ops_per_cpu_s",
                 kOpsPerCycle * replay_cycles_ / replay_cpu_s_, "1/s",
                 replay_cycles_);
}

void ServePart::LayerMetrics() {
  AppendLayerRows(trace_, &report_.rows());
  report_.Metric("service.cover_ms", Median(cover_ms_), "ms",
                 cover_ms_.size());
  report_.Metric("service.invalidate_ms", Median(invalidate_ms_), "ms",
                 invalidate_ms_.size());
  report_.Metric("service.sets_repaired", Median(sets_repaired_), "count",
                 sets_repaired_.size());
  report_.Metric("service.repaired_fraction", Median(repaired_fraction_),
                 "ratio", repaired_fraction_.size());
  report_.Metric("service.sets_reused", Median(sets_reused_), "count",
                 sets_reused_.size());
  report_.Metric("service.warm_query_wall_p50_ms", Percentile(warm_ms_, 0.5),
                 "ms", warm_ms_.size());
  report_.Metric("service.repair_query_wall_p50_ms",
                 Percentile(repair_ms_, 0.5), "ms", repair_ms_.size());
  report_.Metric("service.mutation_wall_p50_ms", Percentile(mutation_ms_, 0.5),
                 "ms", mutation_ms_.size());
}

}  // namespace perfbench
