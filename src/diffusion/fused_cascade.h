// Bit-parallel fused Monte-Carlo diffusion kernels (Göktürk & Kaya,
// arXiv:2008.03095): 64 simulations run per pass with one uint64_t lane
// word per node, where bit j of a node's word means "active in simulation
// j". Frontier expansion becomes word operations over the out-CSR, and a
// popcount reduction at the end produces the per-simulation Γ(S) vector.
//
// Determinism contract. Simulations are grouped into 64-wide blocks; block
// b of a run keyed by `seed` derives a block seed, and every random draw
// inside the block comes from a per-node stream keyed by
// (block_seed, node) — a counter-based SplitMix64 stream for IC coin
// masks (draws pipeline with no serial state recurrence) and
// Rng::ForStream for LT thresholds:
//
//   * IC: node u's out-edge coin masks are drawn in out-edge order from
//     the coin stream of (block_seed, u). A mask's bit j is set with probability
//     W(u,v) (16-bit fixed point, see kCoinBits), built by an MSB-first
//     comparison ladder over the probability's binary digits with
//     early exit once every lane is decided. Masks are a function of
//     (seed, block, u) alone — not of traversal order — so any schedule
//     over blocks yields bit-identical results, and FusedScalarReplay can
//     re-derive any single simulation's cascade exactly.
//   * LT: node v's 64 thresholds are drawn from ForStream(block_seed, v)
//     on first contact and, like the edge weights, held in kLtBits fixed
//     point. Each (touched node, lane) keeps an integer sum of the weights
//     of its active in-edges: a node u walks its out-edges once per
//     frontier, adds W(u,v) to every contacted lane of v and activates the
//     lanes whose sum reaches their threshold. Integer addition does not
//     depend on order, so a lane's activation is independent of the order
//     in which its in-neighbors fire: fused and replayed cascades agree bit
//     for bit, and a contact costs one add per live lane.
#ifndef IMBENCH_DIFFUSION_FUSED_CASCADE_H_
#define IMBENCH_DIFFUSION_FUSED_CASCADE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "diffusion/cascade.h"
#include "graph/graph_view.h"

namespace imbench {

// Simulations fused per pass: one bit per simulation in a uint64_t.
inline constexpr uint32_t kFusedLanes = 64;

// Edge probabilities are quantized to kCoinBits binary digits when coin
// masks are built (absolute error <= 2^-(kCoinBits+1); 0 and 1 are exact).
// The comparison ladder draws one 64-bit word per digit until every lane
// is decided, so masks cost at most kCoinBits RNG draws per edge per
// block and about log2(64) + 2 in expectation — amortized over 64
// simulations.
inline constexpr int kCoinBits = 16;

// LT edge weights (clamped to [0, 1]) are rounded and thresholds θ in
// [0, 1) floored to kLtBits binary digits. A lane's sum only grows while
// the lane is inactive, i.e. while sum < threshold < 2^kLtBits, and one
// weight is at most 2^kLtBits, so a uint32_t sum never overflows.
inline constexpr int kLtBits = 31;

// Reusable scratch for fused forward simulation. One context per thread;
// lane words are swept back to zero in O(touched) at block end, so
// repeated blocks never pay an O(n) clear.
class FusedCascadeContext {
 public:
  explicit FusedCascadeContext(const GraphView& graph);

  // Runs simulations [block*64, block*64 + lanes) of the ensemble keyed by
  // `seed` and writes Γ(S) of simulation block*64+j to gamma[j] for
  // j < lanes (a partial tail block uses lanes < 64). Deterministic in
  // (seed, block, seeds) alone.
  void RunBlock(DiffusionKind kind, std::span<const NodeId> seeds,
                uint64_t seed, uint64_t block, uint32_t lanes, NodeId* gamma);

  // The per-block key all in-block streams derive from.
  static uint64_t BlockSeed(uint64_t seed, uint64_t block);

  // Compressed neighbor blocks decoded since the last call (always 0 on
  // the heap backend). The parallel estimator takes it after every block
  // so its trace counts the kept prefix only.
  uint64_t TakeBlocksDecoded() {
    return std::exchange(out_scratch_.blocks_decoded, 0);
  }

 private:
  void RunBlockIc(std::span<const NodeId> seeds, uint64_t block_seed,
                  uint64_t lane_mask);
  void RunBlockLt(std::span<const NodeId> seeds, uint64_t block_seed,
                  uint64_t lane_mask);
  void Activate(NodeId v, uint64_t bits);

  // One touched node's LT state for the block, lane by lane (512 bytes).
  struct LtSlot {
    uint32_t threshold[kFusedLanes];
    uint32_t sum[kFusedLanes];
  };
  LtSlot& LtSlotFor(NodeId v, uint64_t block_seed);

  GraphView graph_;
  // Per forward edge id, built on the first block of the model that reads
  // it, so a context holds only the arrays of the models it runs.
  std::vector<uint32_t> p_fix_;       // IC, kCoinBits fixed point
  std::vector<uint64_t> edge_mask_;   // IC coin masks
  std::vector<uint32_t> lt_fix_;      // LT, kLtBits fixed point
  AdjScratch out_scratch_;            // compact-backend decode buffer

  uint32_t epoch_ = 0;
  // Invariant between blocks: every word is zero (restored by an
  // O(touched) sweep at block end), so a nonzero word doubles as the
  // "touched this block" marker and the hot loops carry no epoch stamps.
  std::vector<uint64_t> active_word_;
  std::vector<uint64_t> pending_word_;
  std::vector<uint32_t> mask_stamp_;  // u's out-edge masks valid this epoch
  std::vector<uint32_t> lt_stamp_;    // v's LT slot valid this epoch
  std::vector<uint32_t> lt_slot_;
  std::vector<LtSlot> lt_slots_;      // touched nodes only
  uint32_t lt_slots_used_ = 0;
  std::vector<NodeId> queue_;
  std::vector<NodeId> touched_;
};

// Replays one simulation of the fused ensemble with a plain sequential
// BFS, deriving the same coin masks / thresholds from the same streams.
// Returns Γ(S) for simulation `index`; bit-for-bit equal to lane index%64
// of FusedCascadeContext::RunBlock(..., index/64, ...). This is the
// differential anchor for the fused kernels (tests/fused_cascade_test.cc).
NodeId FusedScalarReplay(const GraphView& graph, DiffusionKind kind,
                         std::span<const NodeId> seeds, uint64_t seed,
                         uint64_t index);

}  // namespace imbench

#endif  // IMBENCH_DIFFUSION_FUSED_CASCADE_H_
