// Reverse-reachable (RR) set machinery shared by TIM+, IMM and RIS
// (Sec. 4.2).
//
// An RR set for root v is the set of nodes that reach v in a random
// live-edge instantiation of the graph:
//   * IC: each in-edge (u, v) is live independently with probability
//     W(u, v) — reverse BFS with per-edge coin flips.
//   * LT: each node keeps at most one live in-edge, chosen with probability
//     proportional to its weight (no in-edge with the residual probability
//     1 - Σ W) — a reverse random walk without revisits.
//
// Sampling has one batched engine, RrEngine: set number i is always drawn
// from Rng::ForStream(seed, i) — root choice included — so a corpus
// depends only on (seed, count), never on the thread count or on how the
// work was scheduled. The engine fans 64-set batches across the shared
// thread pool and merges them in index order; at one lane
// ThreadPool::ParallelFor runs the same batches inline, so --threads=1 is
// the same code path, not a second engine. RrSampler is the per-set kernel
// both the engine's lanes and the service's repair loop call.
#ifndef IMBENCH_DIFFUSION_RR_SETS_H_
#define IMBENCH_DIFFUSION_RR_SETS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/run_options.h"
#include "diffusion/cascade.h"
#include "framework/run_guard.h"
#include "graph/graph_view.h"

namespace imbench {

class ThreadPool;
class Trace;

// Construction options of RrEngine: diffusion kind plus the shared run
// controls. MakeRrEngine() takes the same struct.
//
// CommonRunOptions fields, as the engine reads them:
//   * `guard` is polled inside the reverse BFS/walk, so even a single
//     exploding RR set (supercritical IC) cannot overrun a budget:
//     generation stops mid-set and the truncated corpus is returned with
//     the trip's StopReason.
//   * `threads` is the number of lanes (0 = all hardware). One lane, or a
//     pool without workers, runs every batch inline on the caller. Corpus
//     contents are identical for every value.
//   * `trace`: the engine adds the examined-edge and decoded-block counts
//     of every appended set to kRrEdgesExamined and
//     kNeighborBlocksDecoded, always from the coordinating thread and only
//     for the merged prefix, so the totals are thread-count-invariant.
//     Callers bump kRrSets themselves (RIS may truncate a chunk after
//     generation, and only the caller knows the kept count).
//   * `seed` is unused here: the stream base is an explicit argument of
//     every Generate() call, because one engine may serve several corpora.
struct SamplerOptions : CommonRunOptions {
  DiffusionKind kind = DiffusionKind::kIndependentCascade;
  // Cap on total node entries across the sets appended to one collection
  // (0 = unlimited). Crossing it stops generation with StopReason::kMemory
  // — the safety valve behind the paper's "Crashed" cells.
  uint64_t max_total_entries = 0;
};

// Outcome of one batched generation request.
struct RrBatchResult {
  uint64_t generated = 0;               // sets appended to the collection
  StopReason stop = StopReason::kNone;  // why generation stopped short
};

class RrCollection;

// Per-set RR kernel: generates one RR set at a time with reusable
// scratch. RrEngine's lanes call GenerateStreamInto; the query service's
// repair loop and the reference tests call the clear-first entry points.
class RrSampler {
 public:
  RrSampler(const GraphView& graph, DiffusionKind kind,
            RunGuard* guard = nullptr);

  // Samples an RR set rooted at a uniform random node; appends its members
  // (root included) to `out` (cleared first). Returns the number of edges
  // examined.
  uint64_t Generate(Rng& rng, std::vector<NodeId>& out);

  // Same, with a caller-chosen root.
  uint64_t GenerateFromRoot(NodeId root, Rng& rng, std::vector<NodeId>& out);

  // Draws the set with global index `index`: rng = ForStream(seed, index),
  // root = rng.NextU32(n). The unit of determinism: set i of any corpus
  // built with `seed` equals this set.
  uint64_t GenerateStream(uint64_t seed, uint64_t index,
                          std::vector<NodeId>& out);

  // Like GenerateStream, but appends the set to `buffer` without clearing
  // it — the batch-buffer path: a lane fills one flat buffer with many
  // consecutive sets and the whole block is spliced into the collection.
  // The appended set occupies buffer[s..buffer.size()) where s is the size
  // on entry. A mid-set stop (guard trip / abort flag) leaves a truncated
  // tail; callers that detect a stop must resize the buffer back to s
  // instead of publishing the partial set.
  uint64_t GenerateStreamInto(uint64_t seed, uint64_t index,
                              std::vector<NodeId>& buffer);

  // Compressed neighbor blocks decoded since the last call (always 0 on
  // the heap backend). RrEngine's lanes take it after every set so the
  // merge can count the kept prefix only.
  uint64_t TakeBlocksDecoded() {
    return std::exchange(scratch_.blocks_decoded, 0);
  }

  // Hook for RrEngine: an additional stop flag polled inside the BFS/walk
  // so a sibling lane's trip truncates this lane's in-flight set too.
  void set_abort_flag(const std::atomic<bool>* abort) { abort_ = abort; }

 private:
  bool PollStop() {
    return (abort_ != nullptr && abort_->load(std::memory_order_relaxed)) ||
           GuardShouldStop(guard_);
  }

  // Both work append-style from `base` (the set's first slot in `out`), so
  // the same code serves the clear-first and batch-buffer entry points.
  uint64_t GenerateIc(NodeId root, Rng& rng, std::vector<NodeId>& out,
                      size_t base);
  uint64_t GenerateLt(NodeId root, Rng& rng, std::vector<NodeId>& out,
                      size_t base);

  // Allocates the visited-stamp array on first use. Deferred so a lane
  // sampler's stamp pages are first touched by the worker that will run
  // it (first-touch NUMA placement under the pinned pool).
  void EnsureStamps() {
    if (visited_stamp_.empty() && graph_.num_nodes() > 0) {
      visited_stamp_.assign(graph_.num_nodes(), 0);
    }
  }

  GraphView graph_;
  DiffusionKind kind_;
  RunGuard* guard_;
  const std::atomic<bool>* abort_ = nullptr;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> visited_stamp_;  // lazily sized (EnsureStamps)
  AdjScratch scratch_;  // compact-backend in-adjacency decode buffer
};

// The batched RR-set engine, at every thread count.
//
// Determinism scheme: the set with global index i is always drawn from
// Rng::ForStream(seed, i), whichever lane runs it. Sets are generated in
// fixed-size batches (kBatchSets consecutive indices counted from the
// start of each Generate call); a wave of batches is fanned across the
// pool with ThreadPool::ParallelFor, each lane appending into private
// per-batch buffers, and after the join the batches are merged into the
// collection in index order. Everything that decides where a corpus
// stops — the entry cap, the rr_arena_grow fault site, an incomplete
// batch — is resolved in that single-threaded merge, so a corpus, its
// widths, its trace counters and any fault replay are the same for every
// lane count. A guard trip marks the tripping lane's batch incomplete; the
// merge stops at the first incomplete batch, so a truncated corpus is
// always a *prefix* of the deterministic sequence.
//
// The engine keeps a running set index across calls: the j-th set it ever
// generates is drawn from Rng::ForStream(seed, j), so callers must pass
// the same seed to every call on one engine.
class RrEngine {
 public:
  // Consecutive set indices generated by one lane between merges. Large
  // enough to amortize scheduling, small enough that a tripped run wastes
  // at most a wave of discarded sets.
  static constexpr uint64_t kBatchSets = 64;

  RrEngine(const GraphView& graph, const SamplerOptions& options);
  ~RrEngine();
  RrEngine(const RrEngine&) = delete;
  RrEngine& operator=(const RrEngine&) = delete;

  // Appends up to `count` RR sets to `out`. If `widths` is non-null, the
  // examined-edge count of each appended set is pushed in the same order
  // (the width counter used by TIM+'s KPT estimation and RIS's budget).
  // On a guard trip or entry-cap hit the appended sets form a prefix of
  // the deterministic set sequence and `stop` carries the reason; callers
  // add `generated` to kRrSets, which keeps counts exact without any
  // atomics on the generation hot path.
  RrBatchResult Generate(uint64_t seed, uint64_t count, RrCollection& out,
                         std::vector<uint64_t>* widths = nullptr);

  // Moves the running set index: the next Generate() call draws its first
  // set from Rng::ForStream(seed, next_index). A fresh engine starts at 0;
  // the query service seeks to the corpus size so a warm corpus built by an
  // earlier (possibly discarded) engine is topped up with exactly the sets
  // a cold engine would have produced next.
  void SeekStream(uint64_t next_index) { next_index_ = next_index; }

 private:
  // Per-lane persistent state: a guard copy (RunGuard is single-threaded,
  // so lanes never share one) and a sampler whose visited-stamp scratch
  // survives across waves. The sampler's stamp array and decode scratch
  // allocate lazily on the lane's first set, so their pages are first
  // touched by the worker that owns them (NUMA first-touch under a pinned
  // pool).
  struct LaneState {
    RunGuard guard;
    RrSampler sampler;
    LaneState(const GraphView& graph, DiffusionKind kind, RunGuard guard_copy)
        : guard(guard_copy), sampler(graph, kind, &this->guard) {}
  };

  // One lane's private output for one batch of kBatchSets consecutive set
  // indices, in the collection's own flat shape: all members back to back
  // plus per-set sizes, so the merge is a single block splice per batch.
  // Per set, `widths` and `blocks` hold its examined edges and decoded
  // neighbor blocks. Buffers persist across waves (cleared, not
  // reallocated) so steady-state generation does no per-batch heap
  // allocation. `complete` distinguishes "ran out of indices" from
  // "drained by a trip": the merge stops at the first incomplete batch so
  // the corpus stays a prefix of the deterministic sequence.
  struct Batch {
    std::vector<NodeId> members;
    std::vector<uint32_t> sizes;
    std::vector<uint64_t> widths;
    std::vector<uint64_t> blocks;
    bool complete = false;
  };

  GraphView graph_;
  SamplerOptions options_;
  ThreadPool* pool_;
  uint32_t lanes_;  // 1 unless the pool has workers to fan out to
  uint64_t next_index_ = 0;  // global stream cursor across Generate calls
  std::vector<std::unique_ptr<LaneState>> lane_states_;
  std::vector<Batch> batches_;  // reusable wave buffers
};

// The single construction point TIM+/IMM/RIS go through.
std::unique_ptr<RrEngine> MakeRrEngine(const GraphView& graph,
                                       const SamplerOptions& options);

// A corpus of RR sets stored in flat append-only arenas (CSR layout, the
// same flattening the reference TIM/IMM implementations use): one
// contiguous `members` array plus a `set_offsets` array for the forward
// direction, and a rebuilt-on-demand CSR inverted index for node -> set
// ids. Both directions are single contiguous allocations, so the greedy
// max-cover inner loops — the hottest loops of TIM+/IMM/RIS — iterate
// plain spans instead of chasing millions of per-set vector headers.
//
// The inverted index is a cache: it is (re)built by the first
// GreedyMaxCover after a mutation via one counting-sort pass over the
// arena, which keeps every mutation O(appended) / O(dropped) and the index
// grouped per node in increasing set-id order (the iteration order the
// greedy relies on for determinism). Because the cache is filled lazily,
// concurrent const access is NOT safe while the index is stale; the
// engines only touch a collection from the coordinating thread.
class RrCollection {
 public:
  explicit RrCollection(NodeId num_nodes);

  // Copies one sampled set into the arena. Convenience wrapper over
  // AppendSet for tests and one-off callers.
  void Add(std::vector<NodeId> set) { AppendSet(set); }

  // Appends one set (a contiguous run of member ids) to the arena.
  void AppendSet(std::span<const NodeId> set);

  // Splices a whole batch in one shot: `sizes[i]` consecutive entries of
  // `members` form the i-th appended set. One bulk copy into the arena
  // plus `sizes.size()` offset pushes — no per-set allocation at all.
  void AppendBatch(std::span<const NodeId> members,
                   std::span<const uint32_t> sizes);

  // Pre-sizes the arenas for `sets` additional-or-total sets holding
  // `entries` total member ids (both are totals, not increments). Callers
  // with a corpus-size estimate (TIM+'s θ from the KPT phase) use this so
  // the final sampling phase doesn't re-grow the arena repeatedly.
  void Reserve(uint64_t sets, uint64_t entries);

  // Drops sets from the back until `size() == n`: an O(dropped) offset
  // rollback of the arenas (the inverted-index cache is invalidated, not
  // unwound). Lets RIS keep its exact per-set budget semantics under
  // batched generation.
  void TruncateTo(size_t n);

  // Replaces the sets named by `set_ids` (sorted ascending, unique) with
  // the flat batch `sizes[i]` consecutive entries of `members` — the same
  // producer shape as AppendBatch. One compaction pass rebuilds both
  // arenas, so the cost is O(TotalEntries) copies and zero resampling:
  // this is the mutation-repair primitive of the query service, which
  // regenerates only the invalidated sets and splices them back in place.
  // Set ids keep their meaning (set i remains stream i of the sampler).
  void ReplaceSets(std::span<const uint32_t> set_ids,
                   std::span<const NodeId> members,
                   std::span<const uint32_t> sizes);

  // Ids of every set containing at least one of `nodes`, sorted ascending
  // and deduplicated — the QuickIM-style invalidation query: an RR set's
  // sampled membership depends only on the in-edges of its member nodes,
  // so after a mutation touching those nodes these are exactly the sets
  // that must be repaired. Builds the inverted index on first use.
  std::vector<uint32_t> SetsContainingAny(std::span<const NodeId> nodes) const;

  // Raw arena views for checkpoint serialization (service/checkpoint.h):
  // the two forward arrays ARE the corpus, so a checkpoint is two block
  // writes plus a header.
  std::span<const NodeId> MembersArena() const { return members_; }
  std::span<const uint64_t> OffsetsArena() const { return set_offsets_; }

  // Rebuilds a collection from serialized arenas (checkpoint recovery).
  // Validates the CSR shape — offsets start at 0, ascend, end at
  // members.size(), and every member id is < num_nodes — and returns false
  // on malformed input without touching *out: a torn or tampered file must
  // fall back to a cold build, never produce a corpus that serves wrong
  // seeds.
  static bool FromArenas(NodeId num_nodes, std::vector<NodeId> members,
                         std::vector<uint64_t> offsets, RrCollection* out);

  size_t size() const {
    // Empty-guard keeps a moved-from collection at size 0 instead of
    // underflowing (the constructor always seeds one offset).
    return set_offsets_.empty() ? 0 : set_offsets_.size() - 1;
  }
  uint64_t TotalEntries() const { return members_.size(); }
  std::span<const NodeId> Set(size_t i) const {
    return std::span<const NodeId>(members_.data() + set_offsets_[i],
                                   set_offsets_[i + 1] - set_offsets_[i]);
  }

  // Exact heap bytes held by the corpus: the two forward arenas plus the
  // inverted-index arenas (zero until first built) and the object header.
  // This is the Fig. 8 memory metric for the RR-sketch family.
  uint64_t MemoryBytes() const;

  // Greedy max cover: picks k nodes maximizing the number of covered sets.
  // Returns the seeds and writes the covered fraction (coverage / size())
  // to `covered_fraction` if non-null. The arenas are left unmodified (the
  // inverted-index cache may be built). Ties break to the largest node id;
  // the walk over exact degree buckets costs O(n + D + decrements), with no
  // log factor.
  std::vector<NodeId> GreedyMaxCover(uint32_t k,
                                     double* covered_fraction = nullptr) const;

  // Same, restricted to the prefix of the first `limit` sets (set ids
  // >= limit are ignored for degrees and coverage; the fraction divides by
  // min(limit, size())). This is how the query service answers a query
  // over a warm corpus that has grown past the query's own θ: covering
  // exactly the prefix a cold corpus would contain keeps served seeds
  // byte-identical to a cold rebuild. limit >= size() degrades to the
  // plain overload.
  std::vector<NodeId> GreedyMaxCoverPrefix(
      uint32_t k, size_t limit, double* covered_fraction = nullptr) const;

 private:
  // Builds the node -> set-ids CSR (inv_offsets_ / inv_sets_) from the
  // arena if any mutation happened since the last build.
  void EnsureInvertedIndex() const;

  // Number of sets with id < limit containing v (prefix of v's slice).
  uint32_t PrefixDegree(NodeId v, size_t limit) const;

  NodeId num_nodes_;
  std::vector<NodeId> members_;        // all sets, back to back
  std::vector<uint64_t> set_offsets_;  // size()+1 offsets into members_
  // Inverted-index cache: set ids grouped by node, ascending within each
  // node's slice. Valid iff index_valid_.
  mutable std::vector<uint64_t> inv_offsets_;  // num_nodes_+1
  mutable std::vector<uint32_t> inv_sets_;
  mutable bool index_valid_ = false;
};

}  // namespace imbench

#endif  // IMBENCH_DIFFUSION_RR_SETS_H_
