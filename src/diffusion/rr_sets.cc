#include "diffusion/rr_sets.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "framework/fault.h"
#include "framework/run_guard.h"
#include "framework/trace.h"

namespace imbench {

RrSampler::RrSampler(const GraphView& graph, DiffusionKind kind,
                     RunGuard* guard)
    : graph_(graph), kind_(kind), guard_(guard) {}

uint64_t RrSampler::Generate(Rng& rng, std::vector<NodeId>& out) {
  return GenerateFromRoot(rng.NextU32(graph_.num_nodes()), rng, out);
}

uint64_t RrSampler::GenerateFromRoot(NodeId root, Rng& rng,
                                     std::vector<NodeId>& out) {
  out.clear();
  EnsureStamps();
  ++epoch_;
  switch (kind_) {
    case DiffusionKind::kIndependentCascade:
      return GenerateIc(root, rng, out, 0);
    case DiffusionKind::kLinearThreshold:
      return GenerateLt(root, rng, out, 0);
  }
  return 0;
}

uint64_t RrSampler::GenerateStream(uint64_t seed, uint64_t index,
                                   std::vector<NodeId>& out) {
  Rng rng = Rng::ForStream(seed, index);
  return Generate(rng, out);
}

uint64_t RrSampler::GenerateStreamInto(uint64_t seed, uint64_t index,
                                       std::vector<NodeId>& buffer) {
  Rng rng = Rng::ForStream(seed, index);
  const NodeId root = rng.NextU32(graph_.num_nodes());
  const size_t base = buffer.size();
  EnsureStamps();
  ++epoch_;
  switch (kind_) {
    case DiffusionKind::kIndependentCascade:
      return GenerateIc(root, rng, buffer, base);
    case DiffusionKind::kLinearThreshold:
      return GenerateLt(root, rng, buffer, base);
  }
  return 0;
}

uint64_t RrSampler::GenerateIc(NodeId root, Rng& rng, std::vector<NodeId>& out,
                               size_t base) {
  uint64_t edges_examined = 0;
  visited_stamp_[root] = epoch_;
  out.push_back(root);
  for (size_t head = base; head < out.size(); ++head) {
    if (PollStop()) break;  // truncated set: run is draining
    const NodeId v = out[head];
    const auto [sources, weights] = graph_.In(v, scratch_);
    edges_examined += sources.size();
    for (size_t i = 0; i < sources.size(); ++i) {
      const NodeId u = sources[i];
      if (visited_stamp_[u] == epoch_) continue;
      if (rng.NextDouble() < weights[i]) {
        visited_stamp_[u] = epoch_;
        out.push_back(u);
      }
    }
  }
  return edges_examined;
}

uint64_t RrSampler::GenerateLt(NodeId root, Rng& rng, std::vector<NodeId>& out,
                               size_t base) {
  // Under LT's live-edge view each node activates via at most one
  // in-neighbor, so the RR set is a simple path walked backwards until the
  // residual no-edge event fires or the walk bites its own tail.
  (void)base;
  uint64_t edges_examined = 0;
  visited_stamp_[root] = epoch_;
  out.push_back(root);
  NodeId v = root;
  while (!PollStop()) {
    const auto [sources, weights] = graph_.In(v, scratch_);
    if (sources.empty()) break;
    edges_examined += sources.size();
    double r = rng.NextDouble();
    NodeId next = kInvalidNode;
    for (size_t i = 0; i < sources.size(); ++i) {
      if (r < weights[i]) {
        next = sources[i];
        break;
      }
      r -= weights[i];
    }
    if (next == kInvalidNode) break;              // residual: no live in-edge
    if (visited_stamp_[next] == epoch_) break;    // cycle
    visited_stamp_[next] = epoch_;
    out.push_back(next);
    v = next;
  }
  return edges_examined;
}

RrEngine::RrEngine(const GraphView& graph, const SamplerOptions& options)
    : graph_(graph),
      options_(options),
      pool_(options.pool != nullptr ? options.pool : &ThreadPool::Shared()),
      lanes_(pool_->worker_count() > 0 ? EffectiveThreads(options.threads)
                                       : 1) {}

RrEngine::~RrEngine() = default;

RrBatchResult RrEngine::Generate(uint64_t seed, uint64_t count,
                                 RrCollection& out,
                                 std::vector<uint64_t>* widths) {
  RrBatchResult result;
  if (count == 0) return result;

  ParallelGuardState stop_state(options_.guard);
  if (lane_states_.empty()) {
    lane_states_.reserve(lanes_);
    for (uint32_t lane = 0; lane < lanes_; ++lane) {
      lane_states_.push_back(std::make_unique<LaneState>(
          graph_, options_.kind, stop_state.MakeLaneGuard()));
    }
  } else {
    // Refresh the guard copies so this call starts from the parent's
    // current budget state (the sampler keeps pointing at ls.guard).
    for (auto& ls : lane_states_) ls->guard = stop_state.MakeLaneGuard();
  }
  for (auto& ls : lane_states_) {
    ls->sampler.set_abort_flag(stop_state.abort_flag());
  }
  // The rr_sampler_lane fault site models a worker lane dying, so it only
  // fires when waves really fan out; a single inline lane (the
  // per-query-sampler fallback of the query service) escapes it.
  const bool fans_out = lanes_ > 1;

  // Merged-prefix totals only, so the trace is thread-count invariant.
  uint64_t edges_examined = 0;
  uint64_t blocks_decoded = 0;
  auto finish = [&](StopReason stop) {
    result.stop = stop;
    TraceAdd(options_.trace, TraceCounter::kRrEdgesExamined, edges_examined);
    TraceAdd(options_.trace, TraceCounter::kNeighborBlocksDecoded,
             blocks_decoded);
    return result;
  };
  bool draining = false;
  while (result.generated < count && !draining) {
    const uint64_t remaining = count - result.generated;
    // A wave covers a few batches per lane: enough to balance uneven set
    // sizes through the pool's dynamic cursor, small enough that buffered
    // (not yet merged) sets stay bounded. Every wave but the last is a
    // whole number of batches, so batch boundaries do not depend on lanes_.
    const uint64_t wave_target =
        std::min<uint64_t>(remaining, uint64_t{lanes_} * 4 * kBatchSets);
    const uint64_t num_batches = (wave_target + kBatchSets - 1) / kBatchSets;
    const uint64_t wave_base = next_index_;
    const uint64_t index_end = wave_base + wave_target;

    // Reset the persistent wave buffers: clear() keeps the capacities, so
    // after the first wave no allocation happens on the generation path.
    if (batches_.size() < num_batches) batches_.resize(num_batches);
    for (uint64_t b = 0; b < num_batches; ++b) {
      batches_[b].members.clear();
      batches_[b].sizes.clear();
      batches_[b].widths.clear();
      batches_[b].blocks.clear();
      batches_[b].complete = false;
    }
    pool_->ParallelFor(
        num_batches, lanes_, [&](uint64_t b, uint32_t lane) {
          LaneState& ls = *lane_states_[lane];
          Batch& batch = batches_[b];
          const uint64_t first = wave_base + b * kBatchSets;
          const uint64_t n = std::min<uint64_t>(kBatchSets, index_end - first);
          for (uint64_t j = 0; j < n; ++j) {
            if (stop_state.aborted()) return;
            if (ls.guard.ShouldStop()) {
              stop_state.Trip(ls.guard.reason());
              return;
            }
            // Fault site: this lane dies before drawing its next set. The
            // wave drains through the shared abort flag and the merge
            // keeps the deterministic prefix; Propagate() withholds
            // transient reasons from the parent guard so a retry can
            // resume from the same stream index.
            StopReason injected = StopReason::kNone;
            if (fans_out && FaultFire(faultsite::kSamplerLane, &injected)) {
              stop_state.Trip(injected);
              return;
            }
            const size_t base = batch.members.size();
            const uint64_t width =
                ls.sampler.GenerateStreamInto(seed, first + j, batch.members);
            const uint64_t blocks = ls.sampler.TakeBlocksDecoded();
            // A trip mid-set (own guard or a sibling's abort) leaves a
            // truncated tail in the buffer; roll it back rather than
            // publish a non-deterministic member list.
            if (ls.guard.stopped()) {
              batch.members.resize(base);
              stop_state.Trip(ls.guard.reason());
              return;
            }
            if (stop_state.aborted()) {
              batch.members.resize(base);
              return;
            }
            batch.sizes.push_back(
                static_cast<uint32_t>(batch.members.size() - base));
            batch.widths.push_back(width);
            batch.blocks.push_back(blocks);
          }
          batch.complete = true;
        });

    // Merge in index order; each batch lands as one block splice (bulk
    // arena copy + size-many offsets).
    for (uint64_t b = 0; b < num_batches; ++b) {
      Batch& batch = batches_[b];
      // Fault site: the arena append of this merged batch fails (simulated
      // OOM). The merge is single-threaded, so the failing batch index is
      // deterministic; nothing from it is appended and the stream cursor
      // stays put, so a retry resumes at exactly the dropped batch.
      StopReason injected = StopReason::kNone;
      if (batch.sizes.empty() && !batch.complete) {
        // Nothing to append; fall through to the incomplete-batch check.
      } else if (FaultFire(faultsite::kRrArenaGrow, &injected)) {
        if (!IsTransientStop(injected) && options_.guard != nullptr) {
          options_.guard->Trip(injected);
        }
        return finish(injected);
      }
      // Entry cap: the engine's own safety valve, resolved here so the
      // crossing set index is deterministic. The crossing set is kept, the
      // rest of the batch is not. It reports kMemory but leaves the
      // caller's run-wide guard alone, so the post-selection evaluation of
      // the partial seed set still runs.
      size_t keep = batch.sizes.size();
      uint64_t keep_entries = batch.members.size();
      bool cap_hit = false;
      if (options_.max_total_entries != 0) {
        uint64_t running = out.TotalEntries();
        for (size_t i = 0; i < batch.sizes.size(); ++i) {
          running += batch.sizes[i];
          if (running > options_.max_total_entries) {
            keep = i + 1;
            keep_entries = running - out.TotalEntries();
            cap_hit = true;
            break;
          }
        }
      }
      out.AppendBatch(
          std::span<const NodeId>(batch.members.data(), keep_entries),
          std::span<const uint32_t>(batch.sizes.data(), keep));
      for (size_t i = 0; i < keep; ++i) {
        if (widths != nullptr) widths->push_back(batch.widths[i]);
        edges_examined += batch.widths[i];
        blocks_decoded += batch.blocks[i];
      }
      next_index_ += keep;
      result.generated += keep;
      if (cap_hit) return finish(StopReason::kMemory);
      if (!batch.complete) {
        draining = true;
        break;
      }
    }
    if (stop_state.aborted()) draining = true;
  }

  stop_state.Propagate();
  return finish(stop_state.reason());
}

std::unique_ptr<RrEngine> MakeRrEngine(const GraphView& graph,
                                       const SamplerOptions& options) {
  return std::make_unique<RrEngine>(graph, options);
}

RrCollection::RrCollection(NodeId num_nodes) : num_nodes_(num_nodes) {
  set_offsets_.push_back(0);
}

bool RrCollection::FromArenas(NodeId num_nodes, std::vector<NodeId> members,
                              std::vector<uint64_t> offsets,
                              RrCollection* out) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != members.size()) {
    return false;
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) return false;
  }
  for (const NodeId v : members) {
    if (v >= num_nodes) return false;
  }
  *out = RrCollection(num_nodes);
  out->members_ = std::move(members);
  out->set_offsets_ = std::move(offsets);
  return true;
}

void RrCollection::AppendSet(std::span<const NodeId> set) {
  for (const NodeId v : set) IMBENCH_CHECK(v < num_nodes_);
  members_.insert(members_.end(), set.begin(), set.end());
  set_offsets_.push_back(members_.size());
  index_valid_ = false;
}

void RrCollection::AppendBatch(std::span<const NodeId> members,
                               std::span<const uint32_t> sizes) {
  for (const NodeId v : members) IMBENCH_CHECK(v < num_nodes_);
  members_.insert(members_.end(), members.begin(), members.end());
  uint64_t offset = set_offsets_.back();
  uint64_t spliced = 0;
  for (const uint32_t size : sizes) {
    offset += size;
    set_offsets_.push_back(offset);
    spliced += size;
  }
  IMBENCH_CHECK(spliced == members.size());
  index_valid_ = false;
}

void RrCollection::Reserve(uint64_t sets, uint64_t entries) {
  set_offsets_.reserve(sets + 1);
  members_.reserve(entries);
}

void RrCollection::TruncateTo(size_t n) {
  if (n >= size()) return;
  set_offsets_.resize(n + 1);
  members_.resize(set_offsets_.back());
  index_valid_ = false;
}

void RrCollection::ReplaceSets(std::span<const uint32_t> set_ids,
                               std::span<const NodeId> members,
                               std::span<const uint32_t> sizes) {
  IMBENCH_CHECK(set_ids.size() == sizes.size());
  if (set_ids.empty()) return;
  for (const NodeId v : members) IMBENCH_CHECK(v < num_nodes_);
  const size_t num_sets = size();
  for (size_t i = 0; i < set_ids.size(); ++i) {
    IMBENCH_CHECK(set_ids[i] < num_sets);
    IMBENCH_CHECK(i == 0 || set_ids[i - 1] < set_ids[i]);
  }
  // Prefix-sum the replacement batch so set_ids[i]'s new members are
  // members[rep_offsets[i] .. rep_offsets[i + 1]).
  std::vector<uint64_t> rep_offsets(sizes.size() + 1, 0);
  for (size_t i = 0; i < sizes.size(); ++i) {
    rep_offsets[i + 1] = rep_offsets[i] + sizes[i];
  }
  IMBENCH_CHECK(rep_offsets.back() == members.size());

  // One forward compaction pass: kept sets are block-copied from the old
  // arena, replaced sets from the batch. Sizes differ in general, so the
  // pass rebuilds both arenas rather than shifting in place.
  std::vector<NodeId> new_members;
  new_members.reserve(members_.size() - (set_offsets_[set_ids.back() + 1] -
                                         set_offsets_[set_ids.front()]) +
                      members.size());
  std::vector<uint64_t> new_offsets;
  new_offsets.reserve(set_offsets_.size());
  new_offsets.push_back(0);
  size_t next_replace = 0;
  for (size_t id = 0; id < num_sets; ++id) {
    if (next_replace < set_ids.size() && set_ids[next_replace] == id) {
      new_members.insert(
          new_members.end(), members.begin() + rep_offsets[next_replace],
          members.begin() + rep_offsets[next_replace + 1]);
      ++next_replace;
    } else {
      new_members.insert(new_members.end(),
                         members_.begin() + set_offsets_[id],
                         members_.begin() + set_offsets_[id + 1]);
    }
    new_offsets.push_back(new_members.size());
  }
  members_ = std::move(new_members);
  set_offsets_ = std::move(new_offsets);
  index_valid_ = false;
}

std::vector<uint32_t> RrCollection::SetsContainingAny(
    std::span<const NodeId> nodes) const {
  EnsureInvertedIndex();
  std::vector<uint32_t> ids;
  for (const NodeId v : nodes) {
    IMBENCH_CHECK(v < num_nodes_);
    ids.insert(ids.end(), inv_sets_.begin() + inv_offsets_[v],
               inv_sets_.begin() + inv_offsets_[v + 1]);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

uint64_t RrCollection::MemoryBytes() const {
  return members_.capacity() * sizeof(NodeId) +
         set_offsets_.capacity() * sizeof(uint64_t) +
         inv_offsets_.capacity() * sizeof(uint64_t) +
         inv_sets_.capacity() * sizeof(uint32_t) + sizeof(*this);
}

void RrCollection::EnsureInvertedIndex() const {
  if (index_valid_) return;
  // Counting sort over the arena: one pass to histogram per-node
  // occurrence counts, one pass to place set ids. Stable by construction,
  // so each node's slice lists set ids in increasing order — the same
  // order the old per-node vectors grew in, which GreedyMaxCover's
  // coverage walk (and therefore the determinism goldens) relies on.
  inv_offsets_.assign(num_nodes_ + 1, 0);
  for (const NodeId v : members_) ++inv_offsets_[v + 1];
  for (NodeId v = 0; v < num_nodes_; ++v) {
    inv_offsets_[v + 1] += inv_offsets_[v];
  }
  inv_sets_.resize(members_.size());
  std::vector<uint64_t> cursor(inv_offsets_.begin(), inv_offsets_.end() - 1);
  const size_t num_sets = size();
  for (size_t id = 0; id < num_sets; ++id) {
    const uint64_t end = set_offsets_[id + 1];
    for (uint64_t i = set_offsets_[id]; i < end; ++i) {
      inv_sets_[cursor[members_[i]]++] = static_cast<uint32_t>(id);
    }
  }
  index_valid_ = true;
}

std::vector<NodeId> RrCollection::GreedyMaxCover(
    uint32_t k, double* covered_fraction) const {
  return GreedyMaxCoverPrefix(k, size(), covered_fraction);
}

uint32_t RrCollection::PrefixDegree(NodeId v, size_t limit) const {
  // Each node's inverted-index slice lists set ids in increasing order, so
  // the ids below `limit` form a prefix of the slice. An empty prefix must
  // short-circuit: `limit - 1` would wrap to UINT32_MAX and report the
  // whole-corpus degree, making a limit-0 cover pick by corpus degree
  // instead of degrading to the padding order.
  if (limit == 0) return 0;
  const auto begin = inv_sets_.begin() + inv_offsets_[v];
  const auto end = inv_sets_.begin() + inv_offsets_[v + 1];
  if (limit >= size()) return static_cast<uint32_t>(end - begin);
  return static_cast<uint32_t>(
      std::upper_bound(begin, end, static_cast<uint32_t>(limit - 1)) - begin);
}

std::vector<NodeId> RrCollection::GreedyMaxCoverPrefix(
    uint32_t k, size_t limit, double* covered_fraction) const {
  limit = std::min(limit, size());
  EnsureInvertedIndex();
  // Exact greedy over lazily-maintained degree buckets: degree[v] =
  // #uncovered sets among the first `limit` that contain v, and bucket[d]
  // holds candidate nodes last seen at degree d. Degrees only decrease, so
  // a cursor sweeps from the top bucket downward and never backs up; a node
  // found below its bucket is moved down (each node moves monotonically,
  // so total moves are bounded by total degree decrements). Selection
  // takes the largest node id in the highest non-empty bucket.
  std::vector<uint32_t> degree(num_nodes_, 0);
  uint32_t max_degree = 0;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    degree[v] = PrefixDegree(v, limit);
    max_degree = std::max(max_degree, degree[v]);
  }
  std::vector<std::vector<NodeId>> buckets(max_degree + 1);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if (degree[v] > 0) buckets[degree[v]].push_back(v);
  }
  std::vector<uint8_t> covered(limit, 0);
  std::vector<uint8_t> chosen(num_nodes_, 0);

  std::vector<NodeId> seeds;
  seeds.reserve(k);
  uint64_t covered_count = 0;
  uint32_t cur = max_degree;
  while (seeds.size() < k) {
    NodeId best = kInvalidNode;
    while (cur > 0) {
      std::vector<NodeId>& bucket = buckets[cur];
      // Compact the bucket in place: drop chosen nodes, sink nodes whose
      // degree decayed, and track the max id among the survivors.
      size_t keep = 0;
      for (const NodeId v : bucket) {
        if (chosen[v]) continue;
        const uint32_t d = degree[v];
        if (d == cur) {
          bucket[keep++] = v;
          if (best == kInvalidNode || v > best) best = v;
        } else if (d > 0) {
          buckets[d].push_back(v);
        }
      }
      bucket.resize(keep);
      if (best != kInvalidNode) break;
      --cur;
    }
    if (best == kInvalidNode) {
      // Every set is covered before k picks: fill the remaining slots with
      // unchosen nodes so the result always has k seeds (matches the
      // reference implementations).
      for (NodeId v = 0; v < num_nodes_ && seeds.size() < k; ++v) {
        if (!chosen[v]) {
          chosen[v] = 1;
          seeds.push_back(v);
        }
      }
      break;
    }
    chosen[best] = 1;
    seeds.push_back(best);
    for (uint64_t j = inv_offsets_[best]; j < inv_offsets_[best + 1]; ++j) {
      const uint32_t set_id = inv_sets_[j];
      if (set_id >= limit) break;  // slice is ascending; rest is past limit
      if (covered[set_id]) continue;
      covered[set_id] = 1;
      ++covered_count;
      const uint64_t end = set_offsets_[set_id + 1];
      for (uint64_t i = set_offsets_[set_id]; i < end; ++i) {
        --degree[members_[i]];
      }
    }
  }
  if (covered_fraction != nullptr) {
    *covered_fraction = limit == 0 ? 0.0
                                   : static_cast<double>(covered_count) /
                                         static_cast<double>(limit);
  }
  return seeds;
}

}  // namespace imbench
